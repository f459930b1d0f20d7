package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestClassStudiesMonotone checks the model's monotonicity on the what-if
// studies: a class's CPI never falls as more of its misses go to a slower
// tier or as the channel sustains less bandwidth, and a study whose first
// design is its own reference reads 0% against it in that row. HPC is
// left out of the slower-tier columns on purpose: the second tier adds
// aggregate bandwidth, which the bandwidth-bound class gains from.
func TestClassStudiesMonotone(t *testing.T) {
	s := testSuite()
	for _, tc := range []struct {
		name string
		run  func(context.Context) (Artifact, error)
		// rising names the CPI columns that must not fall down the rows.
		rising []string
		// refFirst: the first row is the reference design.
		refFirst bool
	}{
		{"tiered", s.TieredMemory, []string{"Enterprise CPI", "Big Data CPI"}, false},
		{"cxl-far-memory", s.CXLFarMemory, []string{"Enterprise CPI", "Big Data CPI"}, true},
		{"numa", s.NUMAStudy, []string{"Enterprise CPI", "Big Data CPI"}, false},
		{"sustained-bw", s.SustainedBandwidth, []string{"Enterprise CPI", "Big Data CPI", "HPC CPI"}, true},
		{"future-memory", s.FutureMemory, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run(bg)
			if err != nil {
				t.Fatal(err)
			}
			table := a.Tables[0]
			rows := table.Rows()
			col := map[string]int{}
			for i, h := range table.Headers {
				col[h] = i
			}
			for _, h := range tc.rising {
				c, ok := col[h]
				if !ok {
					t.Fatalf("no %q column in %v", h, table.Headers)
				}
				prev := -1.0
				for r, row := range rows {
					cpi, err := strconv.ParseFloat(row[c], 64)
					if err != nil {
						t.Fatalf("row %d %q: %v", r, h, err)
					}
					if cpi < prev {
						t.Errorf("row %d (%s): %s fell from %v to %v", r, row[0], h, prev, cpi)
					}
					prev = cpi
				}
			}
			if !tc.refFirst {
				return
			}
			vs := 0
			for i, h := range table.Headers {
				if !strings.Contains(h, " vs ") {
					continue
				}
				vs++
				if rows[0][i] != "0%" {
					t.Errorf("first row %s = %q, want 0%%", h, rows[0][i])
				}
			}
			if vs != 3 {
				t.Fatalf("%d \"vs\" columns in %v, want one per class", vs, table.Headers)
			}
		})
	}
}
