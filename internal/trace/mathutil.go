package trace

import "math"

// Thin wrappers keep math usage in one place (and the RNG file free of a
// direct dependency, which makes the sampling code easier to test against
// alternative implementations).

func ln(x float64) float64 { return math.Log(x) }

func pow(x, y float64) float64 { return math.Pow(x, y) }

func mathFloat64bits(v float64) uint64 { return math.Float64bits(v) }

func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }

// maxInt bounds a decoded count that becomes an int.
const maxInt = math.MaxInt

// finiteNonNeg reports whether v is neither NaN, infinite nor negative.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
