package regress

import (
	"reflect"
	"sort"
	"testing"
)

// threeBlobs builds well-separated clusters like the Fig. 6 classes.
func threeBlobs() ([]Point, []int) {
	pts := []Point{
		// "enterprise": high x, low y
		{0.40, 0.005}, {0.45, 0.006}, {0.50, 0.005}, {0.35, 0.004},
		// "big data": mid x, mid y
		{0.20, 0.010}, {0.22, 0.012}, {0.18, 0.011},
		// "hpc": low x, high y
		{0.05, 0.050}, {0.07, 0.060}, {0.06, 0.045},
	}
	labels := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	return pts, labels
}

func normalize(pts []Point) []Point {
	// Scale y into a comparable range, as model.Cluster does.
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{p[0], p[1] * 10}
	}
	return out
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	pts, labels := threeBlobs()
	c, err := KMeans(normalize(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	// All points with the same true label must share a cluster id, and
	// different labels must have different ids.
	byLabel := map[int]int{}
	for i, l := range labels {
		if prev, seen := byLabel[l]; seen {
			if c.Assignment[i] != prev {
				t.Fatalf("label %d split across clusters", l)
			}
		} else {
			byLabel[l] = c.Assignment[i]
		}
	}
	seen := map[int]bool{}
	for _, id := range byLabel {
		if seen[id] {
			t.Fatal("two labels merged into one cluster")
		}
		seen[id] = true
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs()
	a, err := KMeans(normalize(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(normalize(pts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatal("KMeans is not deterministic")
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 1); err != ErrInsufficientData {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := KMeans([]Point{{1}}, 2); err != ErrInsufficientData {
		t.Fatalf("k>n err = %v", err)
	}
	if _, err := KMeans([]Point{{1}, {1, 2}}, 1); err != ErrInsufficientData {
		t.Fatalf("ragged dims err = %v", err)
	}
	if _, err := KMeans([]Point{{1}, {2}}, 0); err != ErrInsufficientData {
		t.Fatalf("k=0 err = %v", err)
	}
}

func TestKMeansK1(t *testing.T) {
	pts := []Point{{0, 0}, {2, 2}, {4, 4}}
	c, err := KMeans(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Point{2, 2}
	if !reflect.DeepEqual(c.Centroids[0], want) {
		t.Fatalf("centroid = %v, want %v", c.Centroids[0], want)
	}
	for _, a := range c.Assignment {
		if a != 0 {
			t.Fatal("all points must map to cluster 0")
		}
	}
}

func TestKMeansInertiaZeroForKEqualsN(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {0, 10}}
	c, err := KMeans(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Inertia != 0 {
		t.Fatalf("inertia = %v, want 0 when every point is its own cluster", c.Inertia)
	}
}

func TestSortedByDim(t *testing.T) {
	pts := []Point{{3}, {1}, {2}}
	got := SortedByDim(pts, 0)
	if !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Fatalf("SortedByDim = %v", got)
	}
}

// SortedByDim returns index order of points sorted ascending by dimension d,
// used for stable, reproducible report output.
func SortedByDim(points []Point, d int) []int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return points[idx[a]][d] < points[idx[b]][d] })
	return idx
}
