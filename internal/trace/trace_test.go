package trace

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must be remapped (xorshift cannot leave 0)")
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(10); v >= 10 {
			t.Fatalf("Uint64n(10) = %d", v)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("p=0 must never fire")
		}
		if !r.Bernoulli(1) {
			t.Fatal("p=1 must always fire")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(17)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Exp(10)
		if v < 0 {
			t.Fatalf("Exp < 0: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Fatalf("Exp mean = %v, want ≈10", mean)
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(19)
	for _, skew := range []float64{0, 0.5, 1.2} {
		for i := 0; i < 1000; i++ {
			if v := r.Zipf(100, skew); v >= 100 {
				t.Fatalf("Zipf out of range: %d at skew %v", v, skew)
			}
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	r := NewRNG(23)
	const n = 20000
	countHot := func(skew float64) int {
		hot := 0
		for i := 0; i < n; i++ {
			if r.Zipf(1000, skew) < 100 {
				hot++
			}
		}
		return hot
	}
	uniform := countHot(0)
	skewed := countHot(1.2)
	if skewed <= uniform*2 {
		t.Fatalf("skew 1.2 hot hits (%d) should far exceed uniform (%d)", skewed, uniform)
	}
}

func TestZipfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRNG(1).Zipf(0, 1)
}

func TestAddressSpaceDisjoint(t *testing.T) {
	var s AddressSpace
	a := s.AllocRegion(1 << 20)
	b := s.AllocRegion(1 << 20)
	if a.Base == 0 {
		t.Fatal("address 0 must never be allocated")
	}
	if b.Base < a.Base+a.Size {
		t.Fatalf("regions overlap: a=[%x,%x) b=%x", a.Base, a.Base+a.Size, b.Base)
	}
}

// Property: any allocation sequence yields pairwise-disjoint regions.
func TestAddressSpaceDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var s AddressSpace
		type region struct{ base, size uint64 }
		var regions []region
		for _, sz := range sizes {
			size := uint64(sz)%65536 + 1
			base := s.Alloc(size, 64)
			for _, r := range regions {
				if base < r.base+r.size && r.base < base+size {
					return false
				}
			}
			if base%64 != 0 {
				return false
			}
			regions = append(regions, region{base, size})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewAddressSpaceBase(t *testing.T) {
	s := NewAddressSpace(1 << 36)
	if got := s.Alloc(64, 64); got < 1<<36 {
		t.Fatalf("alloc below requested base: %x", got)
	}
	s0 := NewAddressSpace(0)
	if got := s0.Alloc(64, 64); got == 0 {
		t.Fatal("zero base must be remapped")
	}
}

func TestRegionLines(t *testing.T) {
	r := Region{Base: 0, Size: 130}
	if got := r.Lines(64); got != 3 {
		t.Fatalf("Lines = %d, want 3 (rounded up)", got)
	}
	if got := r.Lines(0); got != 3 {
		t.Fatalf("Lines with default size = %d, want 3", got)
	}
}

func TestBlockResetKeepsCapacity(t *testing.T) {
	b := &Block{}
	b.Instructions = 10
	b.BaseCPI = 1
	b.AddRef(1, false)
	b.AddNT(2)
	b.Chains = 3
	b.IOBytes = 4
	b.IdleNS = 5
	capBefore := cap(b.Refs)
	b.Reset()
	if b.Instructions != 0 || b.BaseCPI != 0 || len(b.Refs) != 0 || b.Chains != 0 || b.IOBytes != 0 || b.IdleNS != 0 {
		t.Fatalf("Reset left state: %+v", b)
	}
	if cap(b.Refs) != capBefore {
		t.Fatal("Reset must keep ref capacity")
	}
}

func TestAddNTSetsFlags(t *testing.T) {
	b := &Block{}
	b.AddNT(0x40)
	if !b.Refs[0].Write || !b.Refs[0].NonTemporal {
		t.Fatalf("AddNT flags: %+v", b.Refs[0])
	}
}
