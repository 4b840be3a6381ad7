package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a finite
// sample. It answers F(x) = P[X ≤ x] and quantile queries, and can export a
// reduced point set for plotting (as used by the Fig. 4b path-stretch CDF).
type ECDF struct {
	xs []float64 // ascending
}

// NewECDF builds an ECDF from samples. The input is copied.
func NewECDF(samples []float64) *ECDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return &ECDF{xs: xs}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.xs) }

// Eval returns F(x), the fraction of samples ≤ x.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	// Index of first element > x.
	idx := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] > x })
	return float64(idx) / float64(len(e.xs))
}

// Quantile returns the smallest x with F(x) ≥ p, for p in (0,1]. p ≤ 0
// returns the minimum sample; an empty ECDF returns zero.
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[n-1]
	}
	rank := int(p*float64(n)+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return e.xs[rank]
}

// Min returns the smallest sample, or zero when empty.
func (e *ECDF) Min() float64 {
	if len(e.xs) == 0 {
		return 0
	}
	return e.xs[0]
}

// Max returns the largest sample, or zero when empty.
func (e *ECDF) Max() float64 {
	if len(e.xs) == 0 {
		return 0
	}
	return e.xs[len(e.xs)-1]
}

// Point is a single (x, F(x)) coordinate of a CDF curve.
type Point struct {
	X float64
	F float64
}

// Points returns at most maxPoints (x, F(x)) pairs spanning the sample
// range, suitable for rendering the CDF as a line. With maxPoints ≤ 0 every
// distinct sample becomes a point.
func (e *ECDF) Points(maxPoints int) []Point {
	n := len(e.xs)
	if n == 0 {
		return nil
	}
	var pts []Point
	if maxPoints <= 0 || maxPoints >= n {
		pts = make([]Point, 0, n)
		for i, x := range e.xs {
			if i+1 < n && e.xs[i+1] == x {
				continue // keep only the last occurrence of each distinct x
			}
			pts = append(pts, Point{X: x, F: float64(i+1) / float64(n)})
		}
		return pts
	}
	pts = make([]Point, 0, maxPoints)
	for k := 0; k < maxPoints; k++ {
		idx := (k + 1) * n / maxPoints
		if idx == 0 {
			idx = 1
		}
		x := e.xs[idx-1]
		pts = append(pts, Point{X: x, F: float64(idx) / float64(n)})
	}
	return dedupePoints(pts)
}

func dedupePoints(pts []Point) []Point {
	out := pts[:0]
	for i, p := range pts {
		if i > 0 && out[len(out)-1].X == p.X {
			out[len(out)-1] = p // keep the higher F for a duplicate x
			continue
		}
		out = append(out, p)
	}
	return out
}
