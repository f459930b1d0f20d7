package trace

// FNV-64a constants. fnvPrimePow8 is fnvPrime⁸ mod 2⁶⁴: the factor
// seven zero bytes and one more multiply contribute after a word's low
// byte.
const (
	fnvOffset    uint64 = 14695981039346656037
	fnvPrime     uint64 = 1099511628211
	fnvPrimePow8 uint64 = 0x1efac7090aef4a21
)

// Hash64 is an FNV-64a fold over a stream of words, each fed as its 8
// little-endian bytes: the determinism witness of generated arrival
// traces and of the fleet simulator's event order. The zero value is
// not usable; call NewHash64.
type Hash64 struct{ sum uint64 }

// NewHash64 returns a fold at the FNV-64a offset basis.
func NewHash64() Hash64 { return Hash64{sum: fnvOffset} }

// Fold feeds one word. A word below 256 has seven zero high bytes,
// which only multiply by the prime, so it folds in one step.
func (h *Hash64) Fold(w uint64) {
	if w < 256 {
		h.sum = (h.sum ^ w) * fnvPrimePow8
		return
	}
	s := h.sum
	for i := 0; i < 8; i++ {
		s = (s ^ (w & 0xFF)) * fnvPrime
		w >>= 8
	}
	h.sum = s
}

// Sum64 returns the fold so far.
func (h *Hash64) Sum64() uint64 { return h.sum }
