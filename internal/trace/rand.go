package trace

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). Workload generators must be reproducible run-to-run —
// the paper's methodology depends on "very little or no run-to-run
// variation in pathlength" (§V.B) — so every instance derives its stream
// from an explicit seed rather than global randomness.
type RNG struct {
	state uint64
}

// golden is 2⁶⁴/φ, the odd splitmix increment.
const golden = 0x9E3779B97F4A7C15

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant; xorshift cannot leave the zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = golden
	}
	return &RNG{state: seed}
}

// StreamRNG returns the generator of one numbered stream under a run
// seed: the seed mixed with the stream index, splitmix-style. Each
// tenant or client draws from its own stream, so adding or reordering
// streams never perturbs another stream's draws.
func StreamRNG(seed uint64, stream int) *RNG {
	return NewRNG((seed + uint64(stream) + 1) * golden)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint64n returns a pseudo-random value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("trace: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean,
// used for MLC-style open-loop arrival processes.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = 1 - 1e-12
	}
	// -mean * ln(1-u); ln via math would be fine but keep the dependency
	// local: use the math package.
	return -mean * ln(1-u)
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew
// s ≥ 0 (0 is uniform). It uses the inverse-power approximation
// floor(n * u^(1/(1-s))) for s in (0,1) and a two-level hot/cold split for
// s ≥ 1, which is accurate enough for cache-locality shaping and much
// cheaper than a full rejection sampler.
func (r *RNG) Zipf(n uint64, s float64) uint64 {
	if n == 0 {
		panic("trace: Zipf(0)")
	}
	switch {
	case s <= 0:
		return r.Uint64n(n)
	case s < 1:
		u := r.Float64()
		v := pow(u, 1/(1-s))
		i := uint64(v * float64(n))
		if i >= n {
			i = n - 1
		}
		return i
	default:
		// Hot/cold: 80% of draws to the hottest ~max(1, n/16) elements.
		hot := n / 16
		if hot == 0 {
			hot = 1
		}
		if r.Bernoulli(0.8) {
			return r.Uint64n(hot)
		}
		return r.Uint64n(n)
	}
}
