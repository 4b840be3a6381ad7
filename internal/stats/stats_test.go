package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic sample is 4; sample variance is
	// 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Errorf("Sum = %v, want 40", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.Std() != 0 || s.N() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		cut := rng.Intn(n + 1)

		var whole, a, b Summary
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.N() == whole.N() &&
			almostEqual(a.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(a.Variance(), whole.Variance(), 1e-7) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},
		{150, 50},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be zero")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestJainIndex(t *testing.T) {
	// The paper's Fig. 3 example: flows at 8 and 2 Mbps give F ≈ 0.735;
	// equal 5/5 gives F = 1.
	if got := JainIndex([]float64{8, 2}); !almostEqual(got, 100.0/136.0, 1e-9) {
		t.Errorf("JainIndex(8,2) = %v, want %v", got, 100.0/136.0)
	}
	if got := JainIndex([]float64{5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("JainIndex(5,5) = %v, want 1", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain inputs should yield 0")
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		j := JainIndex(xs)
		if j == 0 { // possible only if all-zero sample
			for _, x := range xs {
				if x != 0 {
					return false
				}
			}
			return true
		}
		return j >= 1/float64(n)-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := e.Eval(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Eval(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if e.Quantile(0.5) != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", e.Quantile(0.5))
	}
	if e.Quantile(1.0) != 3 {
		t.Errorf("Quantile(1.0) = %v, want 3", e.Quantile(1.0))
	}
	if e.Min() != 1 || e.Max() != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", e.Min(), e.Max())
	}
}

func TestECDFMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.1 {
			v := e.Eval(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return e.Eval(math.Inf(1)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 3, 3, 3})
	pts := e.Points(0)
	want := []Point{{1, 2.0 / 6}, {2, 3.0 / 6}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("Points = %v, want %v", pts, want)
	}
	for i := range pts {
		if pts[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	reduced := e.Points(2)
	if len(reduced) == 0 || reduced[len(reduced)-1].F != 1 {
		t.Errorf("reduced points should end at F=1, got %v", reduced)
	}
	var empty *ECDF = NewECDF(nil)
	if empty.Points(5) != nil {
		t.Error("empty ECDF should have no points")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 10) // 10 over [0,2)
	tw.Observe(2, 0)  // 0 over [2,4)
	if got := tw.MeanAt(4); !almostEqual(got, 5, 1e-12) {
		t.Errorf("MeanAt(4) = %v, want 5", got)
	}
	if tw.Peak() != 10 {
		t.Errorf("Peak = %v, want 10", tw.Peak())
	}
	if tw.Last() != 0 {
		t.Errorf("Last = %v, want 0", tw.Last())
	}
	var empty TimeWeighted
	if empty.MeanAt(10) != 0 {
		t.Error("empty TimeWeighted mean should be 0")
	}
}
