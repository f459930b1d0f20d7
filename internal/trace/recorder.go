package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace recording and replay: capture a generator's block stream to a
// compact binary format once, then replay it on any machine
// configuration. This decouples workload generation from measurement the
// way real methodologies separate trace collection from trace-driven
// simulation, and makes cross-configuration comparisons use *literally*
// identical instruction streams.
//
// Format (little endian):
//
//	magic "MMTR" | version u16
//	per block:
//	  instructions uvarint | baseCPI f64 | chains uvarint |
//	  ioBytes f64 | idleNS f64 | nrefs uvarint |
//	  per ref: addr uvarint (delta-from-previous zig-zag) | flags u8
//
// A zero-instruction block terminates the stream (generators never emit
// one — the machine panics on them — so it is free as a sentinel).

const (
	traceMagic   = "MMTR"
	traceVersion = 1

	flagWrite       = 1 << 0
	flagNonTemporal = 1 << 1
	flagNoPrefetch  = 1 << 2
)

// ErrBadTrace reports a corrupt or incompatible trace stream.
var ErrBadTrace = errors.New("trace: bad or incompatible trace stream")

// Recorder wraps a Generator, copying every block it produces to w.
type Recorder struct {
	gen      Generator
	w        *bufio.Writer
	err      error
	prevAddr uint64
	started  bool
}

// NewRecorder starts a recording onto w. Close must be called to flush
// the terminator.
func NewRecorder(gen Generator, w io.Writer) (*Recorder, error) {
	if gen == nil {
		return nil, errors.New("trace: nil generator")
	}
	r := &Recorder{gen: gen, w: bufio.NewWriter(w)}
	if _, err := r.w.WriteString(traceMagic); err != nil {
		return nil, err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], traceVersion)
	if _, err := r.w.Write(ver[:]); err != nil {
		return nil, err
	}
	return r, nil
}

// NextBlock implements Generator: it delegates and records. A block the
// replayer would reject stops the recording with ErrBadTrace (see Err).
func (r *Recorder) NextBlock(dst *Block) {
	r.gen.NextBlock(dst)
	if r.err != nil {
		return
	}
	if r.err = checkBlock(dst); r.err == nil {
		r.err = r.writeBlock(dst)
	}
}

// Close writes the stream terminator and flushes.
func (r *Recorder) Close() error {
	if r.err != nil {
		return r.err
	}
	// Terminator: a zero-instruction block.
	if err := writeUvarint(r.w, 0); err != nil {
		return err
	}
	return r.w.Flush()
}

func (r *Recorder) writeBlock(b *Block) error {
	if err := writeUvarint(r.w, b.Instructions); err != nil {
		return err
	}
	if err := writeF64(r.w, b.BaseCPI); err != nil {
		return err
	}
	if err := writeUvarint(r.w, uint64(b.Chains)); err != nil {
		return err
	}
	if err := writeF64(r.w, b.IOBytes); err != nil {
		return err
	}
	if err := writeF64(r.w, b.IdleNS); err != nil {
		return err
	}
	if err := writeUvarint(r.w, uint64(len(b.Refs))); err != nil {
		return err
	}
	for _, ref := range b.Refs {
		delta := int64(ref.Addr) - int64(r.prevAddr)
		r.prevAddr = ref.Addr
		if err := writeUvarint(r.w, zigzag(delta)); err != nil {
			return err
		}
		var flags byte
		if ref.Write {
			flags |= flagWrite
		}
		if ref.NonTemporal {
			flags |= flagNonTemporal
		}
		if ref.NoPrefetch {
			flags |= flagNoPrefetch
		}
		if err := r.w.WriteByte(flags); err != nil {
			return err
		}
	}
	return nil
}

// Replayer is a Generator that replays a recorded stream. When the
// stream ends it loops from the first recorded block (steady-state
// workloads record a representative window and cycle it).
type Replayer struct {
	blocks []Block
	pos    int
}

// NewReplayer parses a recorded stream fully into memory.
func NewReplayer(rd io.Reader) (*Replayer, error) {
	br := bufio.NewReader(rd)
	head := make([]byte, len(traceMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(head[:4]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != traceVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadTrace, v)
	}

	var blocks []Block
	prevAddr := uint64(0)
	for {
		instr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated (%v)", ErrBadTrace, err)
		}
		if instr == 0 {
			break // terminator
		}
		var b Block
		b.Instructions = instr
		if b.BaseCPI, err = readF64(br); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		chains, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if chains > maxInt {
			return nil, fmt.Errorf("%w: chain count %d overflows int", ErrBadTrace, chains)
		}
		b.Chains = int(chains)
		if b.IOBytes, err = readF64(br); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if b.IdleNS, err = readF64(br); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if err := checkBlock(&b); err != nil {
			return nil, err
		}
		nrefs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		if nrefs > 1<<20 {
			return nil, fmt.Errorf("%w: implausible ref count %d", ErrBadTrace, nrefs)
		}
		// Grow the refs as they parse: a count claimed by a short stream
		// allocates no more than the stream holds.
		b.Refs = make([]Ref, 0, min(nrefs, 4096))
		for range nrefs {
			zz, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
			}
			addr := uint64(int64(prevAddr) + unzigzag(zz))
			prevAddr = addr
			flags, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
			}
			b.Refs = append(b.Refs, Ref{
				Addr:        addr,
				Write:       flags&flagWrite != 0,
				NonTemporal: flags&flagNonTemporal != 0,
				NoPrefetch:  flags&flagNoPrefetch != 0,
			})
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return &Replayer{blocks: blocks}, nil
}

// checkBlock reports, as ErrBadTrace, a block header no generator emits:
// zero instructions (the stream terminator), a negative chain count, or a
// BaseCPI, IOBytes or IdleNS that is NaN, infinite or negative.
func checkBlock(b *Block) error {
	if b.Instructions == 0 {
		return fmt.Errorf("%w: zero-instruction block", ErrBadTrace)
	}
	if b.Chains < 0 {
		return fmt.Errorf("%w: negative chain count %d", ErrBadTrace, b.Chains)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"BaseCPI", b.BaseCPI}, {"IOBytes", b.IOBytes}, {"IdleNS", b.IdleNS}} {
		if !finiteNonNeg(f.v) {
			return fmt.Errorf("%w: %s = %v", ErrBadTrace, f.name, f.v)
		}
	}
	return nil
}

// NextBlock implements Generator, looping over the recorded window.
func (r *Replayer) NextBlock(dst *Block) {
	src := &r.blocks[r.pos]
	r.pos = (r.pos + 1) % len(r.blocks)
	dst.Instructions = src.Instructions
	dst.BaseCPI = src.BaseCPI
	dst.Chains = src.Chains
	dst.IOBytes = src.IOBytes
	dst.IdleNS = src.IdleNS
	dst.Refs = append(dst.Refs[:0], src.Refs...)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeF64(w *bufio.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], mathFloat64bits(v))
	_, err := w.Write(buf[:])
	return err
}

func readF64(r *bufio.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return mathFloat64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
