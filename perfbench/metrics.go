package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: series name with labels → value.
type scrape map[string]float64

// scrapeMetrics reads memmodeld's /metrics.
func scrapeMetrics(ctx context.Context, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub is the per-series difference s - before.
func (s scrape) sub(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// quantile estimates the q-quantile in seconds of the request latency
// histograms of the given endpoints, merged, interpolating linearly
// inside the bucket that holds it as Prometheus' histogram_quantile
// does. 0 when the histograms saw no requests.
func (s scrape) quantile(endpoints []string, q float64) float64 {
	type bucket struct{ le, count float64 }
	merged := map[float64]float64{}
	for _, ep := range endpoints {
		prefix := fmt.Sprintf("memmodeld_request_latency_seconds_bucket{endpoint=%q,le=\"", ep)
		for k, v := range s {
			le, ok := strings.CutPrefix(k, prefix)
			if !ok {
				continue
			}
			le = strings.TrimSuffix(le, "\"}")
			bound := math.Inf(1)
			if le != "+Inf" {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			merged[bound] += v
		}
	}
	var bs []bucket
	for le, c := range merged {
		bs = append(bs, bucket{le, c})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

// mean is the exact mean request latency in seconds of the given
// endpoints, from the histograms' sum and count; 0 without requests.
func (s scrape) mean(endpoints []string) float64 {
	var sum, n float64
	for _, ep := range endpoints {
		sum += s[fmt.Sprintf("memmodeld_request_latency_seconds_sum{endpoint=%q}", ep)]
		n += s[fmt.Sprintf("memmodeld_request_latency_seconds_count{endpoint=%q}", ep)]
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// span is one traced request, times in µs from the phase start.
type span struct {
	Due       float64 `json:"due_us"`
	Start     float64 `json:"start_us"`
	Wrote     float64 `json:"wrote_us"`
	FirstByte float64 `json:"first_byte_us"`
	End       float64 `json:"end_us"`
	Status    int     `json:"status"`
}

// writeSpans writes the traced phase's request spans, kept in memory
// until now, as JSON under .bench_build/traces.
func writeSpans(e *env, outs []outcome) error {
	spans := make([]span, len(outs))
	for i := range outs {
		o := &outs[i]
		spans[i] = span{us(o.due), us(o.start), us(o.wrote), us(o.first), us(o.end), o.status}
	}
	if err := os.MkdirAll(e.traces, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.json", e.name, e.seed)), b, 0o644)
}
