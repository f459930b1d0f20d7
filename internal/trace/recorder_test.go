package trace

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// synthGen emits a deterministic mixed stream for round-trip tests.
type synthGen struct {
	rng *RNG
	i   int
}

func (g *synthGen) NextBlock(b *Block) {
	g.i++
	b.Instructions = uint64(400 + g.i%3*100)
	b.BaseCPI = 0.8 + float64(g.i%5)*0.1
	b.Chains = g.i % 4
	if g.i%7 == 0 {
		b.IOBytes = 4096
	}
	if g.i%11 == 0 {
		b.IdleNS = 250
	}
	n := int(g.rng.Uint64n(6))
	for j := 0; j < n; j++ {
		addr := g.rng.Uint64n(1<<40) + 64
		switch g.rng.Uint64n(4) {
		case 0:
			b.AddRef(addr, true)
		case 1:
			b.AddNT(addr)
		default:
			b.Refs = append(b.Refs, Ref{Addr: addr, NoPrefetch: g.rng.Bernoulli(0.2)})
		}
	}
}

func record(t testing.TB, n int, seed uint64) ([]Block, []byte) {
	t.Helper()
	gen := &synthGen{rng: NewRNG(seed)}
	var buf bytes.Buffer
	rec, err := NewRecorder(gen, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []Block
	var b Block
	for i := 0; i < n; i++ {
		b.Reset()
		rec.NextBlock(&b)
		cp := b
		cp.Refs = append([]Ref(nil), b.Refs...)
		want = append(want, cp)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	return want, buf.Bytes()
}

func TestRecordReplayRoundTrip(t *testing.T) {
	want, data := record(t, 200, 42)
	rep, err := NewReplayer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.blocks) != len(want) {
		t.Fatalf("replay length = %d, want %d", len(rep.blocks), len(want))
	}
	var got Block
	for i, w := range want {
		got.Reset()
		rep.NextBlock(&got)
		if got.Instructions != w.Instructions || got.BaseCPI != w.BaseCPI ||
			got.Chains != w.Chains || got.IOBytes != w.IOBytes || got.IdleNS != w.IdleNS {
			t.Fatalf("block %d header mismatch: %+v vs %+v", i, got, w)
		}
		if len(got.Refs) != len(w.Refs) {
			t.Fatalf("block %d refs = %d, want %d", i, len(got.Refs), len(w.Refs))
		}
		for j := range w.Refs {
			if got.Refs[j] != w.Refs[j] {
				t.Fatalf("block %d ref %d = %+v, want %+v", i, j, got.Refs[j], w.Refs[j])
			}
		}
	}
}

func TestReplayerLoops(t *testing.T) {
	want, data := record(t, 5, 7)
	rep, err := NewReplayer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	for i := 0; i < 12; i++ {
		b.Reset()
		rep.NextBlock(&b)
		if b.Instructions != want[i%5].Instructions {
			t.Fatalf("loop iteration %d did not wrap", i)
		}
	}
}

func TestReplayerRejectsGarbage(t *testing.T) {
	if _, err := NewReplayer(bytes.NewReader(rawTrace(100, 1, 2, 4096, 250))); err != nil {
		t.Fatalf("well-formed header rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][]byte{
		nil,
		[]byte("XXXX\x01\x00"),
		[]byte("MMTR\x09\x00"),     // wrong version
		[]byte("MMTR\x01\x00\x05"), // truncated block
		[]byte("MMTR\x01\x00\x00"), // empty trace (terminator only)
		// Block headers no generator emits.
		rawTrace(100, nan, 0, 0, 0),
		rawTrace(100, inf, 0, 0, 0),
		rawTrace(100, -1, 0, 0, 0),
		rawTrace(100, 1, 0, nan, 0),
		rawTrace(100, 1, 0, -inf, 0),
		rawTrace(100, 1, 0, -4096, 0),
		rawTrace(100, 1, 0, 0, nan),
		rawTrace(100, 1, 0, 0, inf),
		rawTrace(100, 1, 0, 0, -250),
		rawTrace(100, 1, math.MaxInt+1, 0, 0), // chain count overflows int
		rawTrace(100, 1, math.MaxUint64, 0, 0),
	}
	for i, data := range cases {
		if _, err := NewReplayer(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
}

// rawTrace encodes one refless block with the given header fields,
// bypassing the recorder's checks, followed by the terminator.
func rawTrace(instr uint64, baseCPI float64, chains uint64, ioBytes, idleNS float64) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(traceMagic)
	w.Write([]byte{traceVersion, 0})
	writeUvarint(w, instr)
	writeF64(w, baseCPI)
	writeUvarint(w, chains)
	writeF64(w, ioBytes)
	writeF64(w, idleNS)
	writeUvarint(w, 0) // no refs
	writeUvarint(w, 0) // terminator
	w.Flush()
	return buf.Bytes()
}

// badGen emits one block the replayer would reject.
type badGen struct{}

func (badGen) NextBlock(b *Block) {
	b.Instructions = 100
	b.BaseCPI = math.NaN()
}

func TestRecorderRejectsBadBlock(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(badGen{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	rec.NextBlock(&b)
	if !errors.Is(rec.err, ErrBadTrace) {
		t.Fatalf("Err = %v, want ErrBadTrace", rec.err)
	}
	if err := rec.Close(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Close = %v, want ErrBadTrace", err)
	}
}

// rerecord replays every block of rep once through a Recorder and
// returns the stream it writes.
func rerecord(t *testing.T, rep *Replayer) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(rep, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	for range len(rep.blocks) {
		b.Reset()
		rec.NextBlock(&b)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("re-recording an accepted trace: %v", err)
	}
	return buf.Bytes()
}

// FuzzReplayer feeds arbitrary bytes to NewReplayer. It must never panic,
// must reject with ErrBadTrace, and every trace it accepts must round-trip:
// re-recorded, it parses back to the same blocks, so recording it once
// more writes the same bytes.
func FuzzReplayer(f *testing.F) {
	_, valid := record(f, 5, 7)
	f.Add(valid)
	f.Add(rawTrace(100, 1, 2, 4096, 250))
	f.Add(rawTrace(100, math.NaN(), 0, 0, 0))
	f.Add([]byte("MMTR\x01\x00\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("err = %v, want ErrBadTrace", err)
			}
			return
		}
		once := rerecord(t, rep)
		again, err := NewReplayer(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-recorded trace rejected: %v", err)
		}
		if len(again.blocks) != len(rep.blocks) {
			t.Fatalf("round trip has %d blocks, want %d", len(again.blocks), len(rep.blocks))
		}
		if twice := rerecord(t, again); !bytes.Equal(twice, once) {
			t.Fatal("re-recording a round-tripped trace changed its bytes")
		}
	})
}

func TestRecorderNilGenerator(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewRecorder(nil, &buf); err == nil {
		t.Fatal("want error")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCompactness(t *testing.T) {
	// Delta-encoded addresses should keep the stream well under the
	// naive 17 bytes/ref (8 addr + 8 pad + flag).
	want, data := record(t, 1000, 99)
	refs := 0
	for _, b := range want {
		refs += len(b.Refs)
	}
	if refs == 0 {
		t.Fatal("no refs recorded")
	}
	perRef := float64(len(data)) / float64(refs)
	if perRef > 40 {
		t.Fatalf("trace too fat: %.1f bytes/ref", perRef)
	}
}
