package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestHashFoldMatchesFNV: the word fold, including its one-step path
// for words below 256, equals hash/fnv's FNV-64a over each word's 8
// little-endian bytes.
func TestHashFoldMatchesFNV(t *testing.T) {
	words := []uint64{0, 1, 2, 255, 256, 257, 1 << 62, 1 << 63, math.MaxUint64,
		math.Float64bits(0), math.Float64bits(1), math.Float64bits(0.5e9), math.Float64bits(math.Pi * 1e7)}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		words = append(words, rng.Uint64(), uint64(rng.Intn(512)))
	}
	ref := fnv.New64a()
	h := NewHash64()
	if got, want := h.Sum64(), ref.Sum64(); got != want {
		t.Fatalf("offset basis %x, want %x", got, want)
	}
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		ref.Write(buf[:])
		h.Fold(w)
		if got, want := h.Sum64(), ref.Sum64(); got != want {
			t.Fatalf("after word %#x: fold %x, byte-wise FNV-64a %x", w, got, want)
		}
	}
}
