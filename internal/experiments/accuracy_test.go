package experiments

import (
	"math"
	"testing"

	"repro/internal/workloads"
)

// Full-scale accuracy pins. The values below are the unrounded fitted
// parameters of the cold-warm-up measurement path, in which every grid
// point warmed an empty machine at its own core speed and DDR grade.
// They bound how far any later measurement path (such as warming once
// at the baseline and copying the warm machine into every grid point)
// may move the paper's tables: each Table 6 class-mean cell within 1%
// relative, each Table 2/4/5 blocking factor within 0.01 absolute, and
// Table 3's worst validation error within the paper's ±3%.
var pinnedClassMeans = []struct {
	name                    string
	cpiCache, bf, mpki, wbr float64
}{
	{"Enterprise", 1.4625427603895633, 0.41759484774877204, 6.920110172203481, 0.2551138460841348},
	{"Big Data", 0.9363272020363199, 0.1979368501761242, 5.5434192693402835, 0.8922899956470394},
	{"HPC", 0.7561513233607009, 0.07192839008715035, 26.408552083333333, 0.27314287718704194},
}

var pinnedBF = map[string]float64{
	"columnstore":    0.19552829028217486,
	"nits":           0.19692333546521723,
	"proximity":      0,
	"spark":          0.20135892478098044,
	"jvm":            0.32746044794751383,
	"oltp":           0.5289112736627266,
	"virtualization": 0.4807638310795313,
	"webcache":       0.33324383830531645,
	"bwaves":         0.05053549576948608,
	"milc":           0.05221302231808625,
	"soplex":         0.1288584849481077,
	"wrf":            0.05610655731292138,
}

const (
	pinClassRelTol = 0.01
	pinBFAbsTol    = 0.01
	pinTable3Max   = 0.03
)

// pinSEBFMax bounds every workload's in-fit OLS standard error of BF at
// full scale. It was set from the first measurement at the 6 M-instruction
// window, where the largest was oltp's 0.0021, as a third of the BF pin:
// the same precision target that sized Full().MeasureInstr.
const pinSEBFMax = 0.0033

func TestFullScaleAccuracyPins(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("fits every workload at full scale")
	}
	s := NewSuite(Full())
	means, err := s.ClassParams(bg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != len(pinnedClassMeans) {
		t.Fatalf("%d class means, want %d", len(means), len(pinnedClassMeans))
	}
	for i, m := range means {
		p := pinnedClassMeans[i]
		if m.Name != p.name {
			t.Fatalf("class %d is %q, want %q", i, m.Name, p.name)
		}
		for _, c := range []struct {
			cell      string
			got, want float64
		}{
			{"CPI_cache", m.CPICache, p.cpiCache},
			{"BF", m.BF, p.bf},
			{"MPKI", m.MPKI, p.mpki},
			{"WBR", m.WBR, p.wbr},
		} {
			if rel := math.Abs(c.got/c.want - 1); rel > pinClassRelTol {
				t.Errorf("Table 6 %s %s = %v, pinned %v (%.2f%% off, bound %.0f%%)",
					p.name, c.cell, c.got, c.want, rel*100, pinClassRelTol*100)
			}
		}
	}

	n := 0
	for _, c := range []workloads.Class{workloads.BigData, workloads.Enterprise, workloads.HPC} {
		for _, w := range workloads.ByClass(c) {
			want, ok := pinnedBF[w.Name()]
			if !ok {
				t.Errorf("%s: no pinned BF", w.Name())
				continue
			}
			n++
			fit, err := s.Fit(bg, w.Name())
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(fit.Params.BF - want); d > pinBFAbsTol {
				t.Errorf("%s BF = %v, pinned %v (off by %.4f, bound %v)", w.Name(), fit.Params.BF, want, d, pinBFAbsTol)
			}
		}
	}
	if n != len(pinnedBF) {
		t.Errorf("checked %d workloads, %d pinned", n, len(pinnedBF))
	}

	worst, worstName := 0.0, ""
	for _, w := range workloads.All() {
		fit, err := s.Fit(bg, w.Name())
		if err != nil {
			t.Fatal(err)
		}
		if se := fit.Line.SESlope; se > worst {
			worst, worstName = se, w.Name()
		}
	}
	if worst > pinSEBFMax {
		t.Errorf("%s SE(BF) = %.4f, bound %v", worstName, worst, pinSEBFMax)
	}
	t.Logf("largest SE(BF): %s %.4f", worstName, worst)

	fit, err := s.Fit(bg, "columnstore")
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for _, v := range fit.Validate() {
		maxErr = math.Max(maxErr, math.Abs(v.Error))
	}
	if maxErr > pinTable3Max {
		t.Errorf("Table 3 max error %.2f%%, bound %.0f%%", maxErr*100, pinTable3Max*100)
	}
}
