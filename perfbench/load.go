package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the pacer's view of time, so tests can drive it.
type clock interface {
	// Now is the time since the clock's epoch.
	Now() time.Duration
	// SleepUntil returns at or after t.
	SleepUntil(t time.Duration)
}

type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }

// SleepUntil sleeps in nanosleep(2) rather than time.Sleep: the Go
// runtime rounds timer waits up to whole milliseconds on Linux, which
// would add ~0.6 ms of lateness to every release at these rates.
func (c realClock) SleepUntil(t time.Duration) {
	d := t - c.Now()
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// pace releases arrival i at its due time sched[i] (sorted ascending),
// handing emit the lateness of the release. It returns once every
// arrival is released or ctx ends.
func pace(ctx context.Context, clk clock, sched []time.Duration, emit func(i int, late time.Duration)) {
	for i, due := range sched {
		if ctx.Err() != nil {
			return
		}
		if clk.Now() < due {
			clk.SleepUntil(due)
		}
		emit(i, clk.Now()-due)
	}
}

// rng is splitmix64: the benchmark's own generator, so a change to the
// program's random streams cannot change the load.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between is uniform in [lo,hi).
func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// intn is uniform in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// poissonSchedule is a seeded Poisson arrival schedule at rate per
// second over d: exponential gaps, in nanoseconds since the start.
func poissonSchedule(r *rng, rate float64, d time.Duration) []time.Duration {
	var sched []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		at := time.Duration(t * 1e9)
		if at >= d {
			return sched
		}
		sched = append(sched, at)
	}
}

// request is one HTTP call of a workload.
type request struct {
	path string
	body []byte
}

// outcome is one request's record. Times are offsets from the phase
// start. In a closed loop due equals start.
type outcome struct {
	due, start, end time.Duration
	lag             time.Duration // how late the pacer released it
	wrote, first    time.Duration // traced spans: request written, first response byte
	status          int
	err             error
	resp            []byte // body, kept for sampled requests only
}

func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// latency is the open-loop latency: from the due time to the last byte.
func (o *outcome) latency() time.Duration { return o.end - o.due }

// clientTimeout bounds one request.
const clientTimeout = 30 * time.Second

// loadClient sends requests over at most conns connections.
type loadClient struct {
	hc    *http.Client
	base  string
	conns int
}

func newLoadClient(base string, conns int) *loadClient {
	return &loadClient{
		base:  base,
		conns: conns,
		hc: &http.Client{Timeout: clientTimeout, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// do sends rq and fills o; keep retains the response body, traced
// records the write and first-byte spans.
func (lc *loadClient) do(ctx context.Context, rq request, epoch time.Time, keep, traced bool, o *outcome) {
	o.start = time.Since(epoch)
	defer func() { o.end = time.Since(epoch) }()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { o.wrote = time.Since(epoch) },
			GotFirstResponseByte: func() { o.first = time.Since(epoch) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lc.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lc.hc.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	if keep {
		o.resp, o.err = io.ReadAll(resp.Body)
	} else {
		_, o.err = io.Copy(io.Discard, resp.Body)
	}
}

// openLoop sends reqs[i] at epoch+sched[i] regardless of completions,
// over lc.conns workers, and returns once every request has completed.
func openLoop(ctx context.Context, lc *loadClient, epoch time.Time, reqs []request, sched []time.Duration, keep func(int) bool, traced bool) []outcome {
	outs := make([]outcome, len(sched))
	// Buffered to the whole schedule so a release never waits for a busy
	// worker: requests queue here, and their wait counts in the latency.
	ch := make(chan int, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				lc.do(ctx, reqs[i], epoch, keep(i), traced, &outs[i])
			}
		}()
	}
	pace(ctx, realClock{epoch}, sched, func(i int, late time.Duration) {
		outs[i].due, outs[i].lag = sched[i], late
		ch <- i
	})
	close(ch)
	wg.Wait()
	if ctx.Err() != nil {
		for i := range outs {
			if outs[i].end == 0 {
				outs[i].err = ctx.Err()
			}
		}
	}
	return outs
}

// closedLoop sends reqs over lc.conns workers, each sending its next
// request when the previous one completes. It returns the records and
// the wall time of the whole batch.
func closedLoop(ctx context.Context, lc *loadClient, reqs []request, keep func(int) bool) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	epoch := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if ctx.Err() != nil {
					outs[i].err = ctx.Err()
					continue
				}
				lc.do(ctx, reqs[i], epoch, keep(i), false, &outs[i])
				outs[i].due = outs[i].start
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(epoch)
}

// failures counts the records that are not 2xx responses.
func failures(outs []outcome) int64 {
	var n int64
	for i := range outs {
		if !outs[i].ok() {
			n++
		}
	}
	return n
}

// latenciesMS returns each record's latency from its due time in ms. A
// failed request counts as missing every limit: it gets the client
// timeout.
func latenciesMS(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		if outs[i].ok() {
			xs[i] = ms(outs[i].latency())
		} else {
			xs[i] = ms(clientTimeout)
		}
	}
	return xs
}

func everyNth(n int) func(int) bool { return func(i int) bool { return i%n == 0 } }
