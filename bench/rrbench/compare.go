package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// readRecord loads a result file written with -out.
func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// readBounds returns each end-to-end metric's regression bound, the share
// of the base median by which it may worsen, from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// Verdicts of -compare. A simulated metric is equal or differs; a host
// metric with a bound is within it, better, worse, or unresolved when its
// spread is wider than the bound; per-layer host metrics carry no bound.
const (
	verdictEqual      = "equal"
	verdictDiffers    = "DIFFERS"
	verdictWithin     = "within-bound"
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

// judge compares one metric of base a and candidate b.
func judge(a, b *stat, bound float64, gated bool) (verdict string, delta float64) {
	delta = (b.Value - a.Value) / math.Abs(a.Value)
	if a.Value == b.Value {
		delta = 0
	}
	if a.Sim {
		if a.Value == b.Value {
			return verdictEqual, delta
		}
		return verdictDiffers, delta
	}
	if !gated {
		return verdictInfo, delta
	}
	worse := delta
	if a.Better == "higher" {
		worse = -delta
	}
	if max(spread(a), spread(b)) > bound {
		switch {
		case beats(b, a):
			return verdictBetter, delta
		case beats(a, b):
			return verdictWorse, delta
		}
		return verdictUnresolved, delta
	}
	switch {
	case worse > bound:
		return verdictWorse, delta
	case worse < -bound:
		return verdictBetter, delta
	}
	return verdictWithin, delta
}

// spread is the interquartile distance as a share of the statistic.
func spread(s *stat) float64 {
	if s.Q3 == s.Q1 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// beats reports whether every raw value of x is better than every raw
// value of y.
func beats(x, y *stat) bool {
	if x.Better == "higher" {
		return slices.Min(x.Raw) > slices.Max(y.Raw)
	}
	return slices.Max(x.Raw) < slices.Min(y.Raw)
}

// compare prints every workload × metric the two records share and reports
// whether any regressed: a simulated metric that differs, or a gated host
// metric that got worse.
func compare(w io.Writer, a, b *record, bounds map[string]float64) (regressed bool) {
	fmt.Fprintf(w, "base: %s %s gomaxprocs=%d %s\n", a.Host.GitRev, a.Host.Go, a.Host.GOMAXPROCS, a.Host.CPUModel)
	fmt.Fprintf(w, "cand: %s %s gomaxprocs=%d %s\n", b.Host.GitRev, b.Host.Go, b.Host.GOMAXPROCS, b.Host.CPUModel)
	fmt.Fprintf(w, "%-9s %-28s %14s %23s %14s %23s %9s  %s\n",
		"workload", "metric", "base", "[q1, q3] n", "cand", "[q1, q3] n", "delta", "verdict")
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range defs {
			sa, sb := wa.Metrics[d.name], wb.Metrics[d.name]
			if sa == nil || sb == nil {
				continue
			}
			bound, gated := bounds[d.name]
			v, delta := judge(sa, sb, bound, gated)
			if v == verdictDiffers || v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(w, "%-9s %-28s %14.6g %23s %14.6g %23s %+8.2f%%  %s\n",
				name, d.name, sa.Value, quart(sa), sb.Value, quart(sb), 100*delta, v)
		}
	}
	return regressed
}

func quart(s *stat) string {
	return fmt.Sprintf("[%.4g, %.4g] %d", s.Q1, s.Q3, s.N)
}
