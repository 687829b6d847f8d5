// Package metrics provides the measurement machinery for the experiments:
// time series sampled from the simulation, summary statistics, least-squares
// regression (used to verify Figure 5's linear overhead), and step-response
// analysis (used to measure the controller's reaction time in Figure 6).
package metrics

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series. Samples must be appended in
// non-decreasing time order, which is what a discrete-event simulation
// naturally produces.
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Add appends a sample. It panics if time goes backwards, since that would
// silently corrupt every downstream analysis.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("metrics: series %q sample at %v before last %v", s.Name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{t, v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// At returns the i'th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns the underlying samples. The slice must not be modified.
func (s *Series) Points() []Point { return s.points }

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.points))
	for i, p := range s.points {
		vs[i] = p.V
	}
	return vs
}

// Slice returns the sub-series with from <= T < to.
func (s *Series) Slice(from, to sim.Time) *Series {
	lo := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= from })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].T >= to })
	out := &Series{Name: s.Name}
	out.points = s.points[lo:hi]
	return out
}

// ValueAt returns the sample value in effect at time t: the value of the
// latest sample at or before t (zero-order hold). ok is false when t
// precedes the first sample.
func (s *Series) ValueAt(t sim.Time) (float64, bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].V, true
}

// Mean returns the arithmetic mean of the sample values (not time-weighted).
func (s *Series) Mean() float64 {
	return Mean(s.Values())
}

// TimeWeightedMean integrates the zero-order-hold signal over [from, to] and
// divides by the window width. It is the right average for quantities like
// "allocation in effect" that change at irregular instants.
func (s *Series) TimeWeightedMean(from, to sim.Time) float64 {
	if to <= from || len(s.points) == 0 {
		return 0
	}
	var acc float64
	prevT := from
	prevV, ok := s.ValueAt(from)
	if !ok {
		prevV = 0
	}
	for _, p := range s.points {
		if p.T <= from {
			prevV = p.V
			continue
		}
		if p.T >= to {
			break
		}
		acc += prevV * p.T.Sub(prevT).Seconds()
		prevT, prevV = p.T, p.V
	}
	acc += prevV * to.Sub(prevT).Seconds()
	return acc / to.Sub(from).Seconds()
}

// WriteCSV writes "seconds,value" rows (with a header) to w.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_s,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.points {
		if _, err := fmt.Fprintf(w, "%.6f,%.9g\n", p.T.Seconds(), p.V); err != nil {
			return err
		}
	}
	return nil
}

// WriteTableCSV writes several series that share a sampling clock as one CSV
// table. Series are aligned by index; the shortest series bounds the rows.
func WriteTableCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	fmt.Fprint(w, "time_s")
	rows := series[0].Len()
	for _, s := range series {
		fmt.Fprintf(w, ",%s", s.Name)
		if s.Len() < rows {
			rows = s.Len()
		}
	}
	fmt.Fprintln(w)
	for i := 0; i < rows; i++ {
		if _, err := fmt.Fprintf(w, "%.6f", series[0].At(i).T.Seconds()); err != nil {
			return err
		}
		for _, s := range series {
			fmt.Fprintf(w, ",%.9g", s.At(i).V)
		}
		fmt.Fprintln(w)
	}
	return nil
}
