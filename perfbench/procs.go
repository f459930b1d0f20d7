package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// procCPU returns the CPU time pid has used so far, summed over its
// threads: the scheduler's nanosecond run time from each thread's
// schedstat.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procPeakRSSMB returns pid's peak resident set size (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// freePort returns a loopback TCP port that was free a moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one running memmodeld process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once the process has exited
}

// startDaemon launches memmodeld on a fresh loopback port and returns
// once it answers 200 on /healthz.
func startDaemon(ctx context.Context, e *env, tag string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.work, "memmodeld-"+tag+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(e.bin, "memmodeld"), "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start memmodeld: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through done and stop
		close(d.done)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// setupDaemon launches memmodeld setupRepeats times, each time timing
// exec to the first healthy /healthz plus a closed-loop warm-up pass. It
// returns the last daemon, still running, its client and the median
// time. check sees each warm-up pass's requests and records.
func setupDaemon(ctx context.Context, e *env, warm []request, keep func(int) bool, check func([]request, []outcome)) (*daemon, *loadClient, float64, error) {
	var d *daemon
	var lc *loadClient
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			lc.close()
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, e, fmt.Sprint(k)); err != nil {
			return nil, nil, 0, err
		}
		lc = newLoadClient(d.base, e.conns)
		outs, _ := closedLoop(ctx, lc, warm, keep)
		times = append(times, time.Since(t0).Seconds())
		check(warm, outs)
	}
	return d, lc, median(times), nil
}

// waitReady polls /healthz until it answers 200.
func (d *daemon) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return errors.New("memmodeld exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("memmodeld not ready after 15s")
}

// stop drains the daemon with SIGTERM, kills it if the drain stalls, and
// returns once the process has exited.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
}

// pct is the p-th percentile (0..100) of xs, 0 when xs is empty.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
