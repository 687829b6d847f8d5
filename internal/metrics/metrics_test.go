package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

func TestSeriesAddAndQuery(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(0), 1)
	s.Add(ms(10), 2)
	s.Add(ms(20), 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if p := s.At(1); p.V != 2 || p.T != ms(10) {
		t.Fatalf("At(1) = %+v", p)
	}
	if p := s.At(s.Len() - 1); p.V != 3 || p.T != ms(20) {
		t.Fatalf("At(Len-1) = %+v", p)
	}
}

func TestSeriesRejectsBackwardsTime(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards sample")
		}
	}()
	s.Add(ms(5), 2)
}

func TestSeriesAllowsEqualTimes(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	s.Add(ms(10), 2)
	if s.Len() != 2 {
		t.Fatal("equal-time samples rejected")
	}
}

func TestSeriesValueAtZeroOrderHold(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	s.Add(ms(20), 5)
	if _, ok := s.ValueAt(ms(5)); ok {
		t.Fatal("ValueAt before first sample should report !ok")
	}
	if v, _ := s.ValueAt(ms(10)); v != 1 {
		t.Fatalf("ValueAt(10ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(15)); v != 1 {
		t.Fatalf("ValueAt(15ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(20)); v != 5 {
		t.Fatalf("ValueAt(20ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(1000)); v != 5 {
		t.Fatalf("ValueAt(1s) = %v", v)
	}
}

func TestSeriesSlice(t *testing.T) {
	s := NewSeries("x")
	for i := int64(0); i < 10; i++ {
		s.Add(ms(i*10), float64(i))
	}
	sub := s.Slice(ms(20), ms(50))
	if sub.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", sub.Len())
	}
	if sub.At(0).V != 2 || sub.At(2).V != 4 {
		t.Fatalf("Slice contents wrong: %+v", sub.Points())
	}
}

func TestSeriesMean(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{3, -1, 4, 1, 5} {
		s.Add(ms(int64(i)), v)
	}
	if got := s.Mean(); math.Abs(got-2.4) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(0), 0)
	s.Add(ms(500), 10) // signal is 0 for first half, 10 for second
	got := s.TimeWeightedMean(ms(0), ms(1000))
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("TimeWeightedMean = %v, want 5", got)
	}
	// Window entirely in the 10 region.
	got = s.TimeWeightedMean(ms(600), ms(800))
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("TimeWeightedMean(600,800) = %v, want 10", got)
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSeries("fill")
	s.Add(ms(0), 0.5)
	s.Add(ms(1000), 0.75)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time_s,fill\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.000000,0.75") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestWriteTableCSV(t *testing.T) {
	a, b := NewSeries("a"), NewSeries("b")
	a.Add(ms(0), 1)
	a.Add(ms(10), 2)
	b.Add(ms(0), 3)
	b.Add(ms(10), 4)
	var sb strings.Builder
	if err := WriteTableCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "time_s,a,b") {
		t.Fatalf("bad header: %q", sb.String())
	}
	if !strings.Contains(sb.String(), "0.010000,2,4") {
		t.Fatalf("bad row: %q", sb.String())
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(vs); v != 4 {
		t.Fatalf("Variance = %v", v)
	}
	if sd := StdDev(vs); sd != 2 {
		t.Fatalf("StdDev = %v", sd)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestPercentile(t *testing.T) {
	vs := SortedCopy(nil, []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if p := PercentileSorted(vs, 0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := PercentileSorted(vs, 100); p != 10 {
		t.Fatalf("P100 = %v", p)
	}
	if p := PercentileSorted(vs, 50); math.Abs(p-5.5) > 1e-12 {
		t.Fatalf("P50 = %v", p)
	}
}

// referencePercentile is the percentile as it stood before the one-sort
// helper: copy, sort, interpolate between closest ranks. The differential
// test below holds SortedCopy+PercentileSorted to it bit for bit.
func referencePercentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestPercentileSortedDifferential checks that one sort read at many
// percentiles gives bit-identical floats to a fresh copy-and-sort per
// percentile, on random samples of every small length with heavy
// duplication, ±Inf, signed zeros and the odd NaN mixed in. The scratch
// buffer is reused across samples, as the SLO report reuses it.
func TestPercentileSortedDifferential(t *testing.T) {
	rng := sim.NewRNG(7)
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.NaN()}
	ps := []float64{-1, 0, 0.1, 1, 25, 33.3, 50, 95, 99, 99.9, 99.99, 100, 150}
	var buf []float64
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		vs := make([]float64, n)
		for i := range vs {
			switch r := rng.Intn(10); {
			case r < 3 && i > 0:
				vs[i] = vs[rng.Intn(i)] // duplicate an earlier value
			case r == 3:
				vs[i] = special[rng.Intn(len(special))]
			default:
				vs[i] = (rng.Float64() - 0.5) * 1e3
			}
		}
		orig := append([]float64(nil), vs...)
		buf = SortedCopy(buf, vs)
		for _, p := range ps {
			want := math.Float64bits(referencePercentile(vs, p))
			if got := math.Float64bits(PercentileSorted(buf, p)); got != want {
				t.Fatalf("trial %d p%v: PercentileSorted %v, reference %v (sample %v)", trial, p, math.Float64frombits(got), math.Float64frombits(want), vs)
			}
		}
		for i := range vs {
			if math.Float64bits(vs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: SortedCopy modified its input", trial)
			}
		}
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.00066*x + 0.00057 // the paper's Figure 5 line
	}
	fit := FitLinear(xs, ys)
	if math.Abs(fit.Slope-0.00066) > 1e-12 {
		t.Fatalf("Slope = %v", fit.Slope)
	}
	if math.Abs(fit.Intercept-0.00057) > 1e-12 {
		t.Fatalf("Intercept = %v", fit.Intercept)
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := sim.NewRNG(3)
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+1+(rng.Float64()-0.5)*0.1)
	}
	fit := FitLinear(xs, ys)
	if math.Abs(fit.Slope-2) > 0.01 {
		t.Fatalf("Slope = %v, want ≈2", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v, want ≈1", fit.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	// Vertical line: all x equal.
	fit := FitLinear([]float64{1, 1, 1}, []float64{1, 2, 3})
	if fit.Slope != 0 || fit.Intercept != 2 {
		t.Fatalf("vertical fit = %+v", fit)
	}
	// Horizontal line: all y equal, exact fit.
	fit = FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Fatalf("horizontal fit = %+v", fit)
	}
}

// Property: for data generated exactly on a line, FitLinear recovers the
// line with R²≈1.
func TestPropertyFitRecoversLine(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a := float64(a8) / 16
		b := float64(b8) / 16
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		fit := FitLinear(xs, ys)
		return math.Abs(fit.Slope-a) < 1e-9 && math.Abs(fit.Intercept-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureStepRising(t *testing.T) {
	s := NewSeries("alloc")
	// Signal at 100 until t=1s, then ramps to 200 over ~300ms.
	for i := int64(0); i <= 2000; i += 10 {
		tm := ms(i)
		v := 100.0
		if i > 1000 {
			v = 100 + math.Min(1, float64(i-1000)/300)*100
		}
		s.Add(tm, v)
	}
	r := MeasureStep(s, ms(1000), 100, 200, ms(2000))
	if !r.Settled {
		t.Fatal("step not settled")
	}
	// 90% of step = 190, reached at t ≈ 1000 + 270ms.
	if r.RiseTime < 250*sim.Millisecond || r.RiseTime > 300*sim.Millisecond {
		t.Fatalf("RiseTime = %v, want ≈270ms", r.RiseTime)
	}
}

func TestMeasureStepFalling(t *testing.T) {
	s := NewSeries("alloc")
	for i := int64(0); i <= 1000; i += 10 {
		v := 200.0
		if i > 500 {
			v = 100
		}
		s.Add(ms(i), v)
	}
	r := MeasureStep(s, ms(500), 200, 100, ms(1000))
	if !r.Settled {
		t.Fatal("falling step not settled")
	}
}

func TestMeasureStepNotSettled(t *testing.T) {
	s := NewSeries("alloc")
	for i := int64(0); i <= 1000; i += 10 {
		s.Add(ms(i), 100)
	}
	r := MeasureStep(s, ms(500), 100, 200, ms(1000))
	if r.Settled {
		t.Fatal("flat signal reported settled")
	}
}

func TestMeasureStepOvershoot(t *testing.T) {
	s := NewSeries("alloc")
	s.Add(ms(0), 100)
	s.Add(ms(10), 250) // 50% past a 100->200 step
	s.Add(ms(20), 200)
	r := MeasureStep(s, ms(0), 100, 200, ms(100))
	if math.Abs(r.Overshoot-0.5) > 1e-9 {
		t.Fatalf("Overshoot = %v, want 0.5", r.Overshoot)
	}
}
