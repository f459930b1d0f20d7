package regress

import "math"

// Point is a point in a small-dimensional feature space. Fig. 6 uses two
// dimensions: blocking factor (latency sensitivity) on x and memory
// references per cycle (bandwidth demand) on y.
type Point []float64

// Clustering is the result of KMeans: a centroid per cluster and the
// cluster assignment of every input point.
type Clustering struct {
	Centroids  []Point
	Assignment []int   // Assignment[i] is the cluster index of points[i]
	Inertia    float64 // sum of squared distances to assigned centroids
	Iterations int
}

func sqDist(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans clusters points into k clusters with Lloyd's algorithm.
//
// Initialization is deterministic: a farthest-point ("k-means++ without
// randomness") seeding that starts from the point closest to the global
// mean and repeatedly adds the point farthest from its nearest centroid.
// Determinism matters here — experiment outputs must be reproducible
// run-to-run without seeding a PRNG.
func KMeans(points []Point, k int) (Clustering, error) {
	if k <= 0 || len(points) < k {
		return Clustering{}, ErrInsufficientData
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return Clustering{}, ErrInsufficientData
		}
	}

	centroids := seedFarthest(points, k)
	assign := make([]int, len(points))
	const maxIter = 100
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([]Point, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make(Point, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := range p {
				sums[c][d] += p[d]
			}
		}
		for c := range sums {
			if counts[c] == 0 {
				continue // keep previous centroid for empty cluster
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}

	inertia := 0.0
	for i, p := range points {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return Clustering{Centroids: centroids, Assignment: assign, Inertia: inertia, Iterations: iter}, nil
}

// seedFarthest picks k deterministic initial centroids.
func seedFarthest(points []Point, k int) []Point {
	dim := len(points[0])
	mean := make(Point, dim)
	for _, p := range points {
		for d := range p {
			mean[d] += p[d]
		}
	}
	for d := range mean {
		mean[d] /= float64(len(points))
	}
	// First seed: point closest to the mean (stable under permutation
	// ties are broken by index order).
	first, firstD := 0, math.Inf(1)
	for i, p := range points {
		if d := sqDist(p, mean); d < firstD {
			first, firstD = i, d
		}
	}
	centroids := []Point{clonePoint(points[first])}
	for len(centroids) < k {
		far, farD := 0, -1.0
		for i, p := range points {
			nearest := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < nearest {
					nearest = d
				}
			}
			if nearest > farD {
				far, farD = i, nearest
			}
		}
		centroids = append(centroids, clonePoint(points[far]))
	}
	return centroids
}

func clonePoint(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}
