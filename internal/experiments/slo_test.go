package experiments_test

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	realrate "repro"
	"repro/internal/experiments"
	"repro/internal/workload/gen"
)

// TestSLOSweepAttainmentMonotone runs a small attainment sweep and pins
// the curve's defining property: the service level never improves as
// offered load climbs. Goodput (met/started, the view that charges
// refusals and deaths) must be monotone non-increasing along the load
// ladder; the sub-saturation point must actually serve its users, and the
// far-past-saturation point must show real degradation — a flat curve
// means the sweep is not loading the machine at all.
func TestSLOSweepAttainmentMonotone(t *testing.T) {
	cfg := experiments.SLOConfig{
		Seed:     7,
		Sessions: 800,
		Loads:    []float64{0.25, 1, 8},
		Policies: []string{"rbs"},
		CPUs:     []int{2},
		Duration: 500 * time.Millisecond,
	}
	res := experiments.RunSLOSweep(cfg)
	if len(res.Points) != len(cfg.Loads) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(cfg.Loads))
	}
	for i, p := range res.Points {
		if p.Sessions.Started == 0 {
			t.Fatalf("load %g: no sessions started", p.Load)
		}
		if i > 0 {
			prev := res.Points[i-1]
			if p.Sessions.Goodput > prev.Sessions.Goodput+1e-9 {
				t.Errorf("goodput not monotone in offered load: %.3f at load %g, %.3f at load %g",
					prev.Sessions.Goodput, prev.Load, p.Sessions.Goodput, p.Load)
			}
		}
	}
	low, high := res.Points[0], res.Points[len(res.Points)-1]
	// At a comfortable load the sessions the system chooses to serve make
	// their deadlines (the governor refusing burst peaks is this family's
	// steady state, so goodput has no floor — but attainment over the
	// admitted-and-completed population does).
	if low.Sessions.Completed == 0 || low.Sessions.Attainment < 0.6 {
		t.Errorf("attainment %.3f over %d completed at load %g: machine cannot serve a comfortable load",
			low.Sessions.Attainment, low.Sessions.Completed, low.Load)
	}
	if high.Sessions.Goodput >= low.Sessions.Goodput {
		t.Errorf("no degradation from load %g (%.3f) to load %g (%.3f): sweep never saturates",
			low.Load, low.Sessions.Goodput, high.Load, high.Sessions.Goodput)
	}
}

// TestSLOSweepOutput pins the sweep's two output surfaces: the printed
// curves carry one block per (policy, cpus) and the CSV carries the header
// plotting scripts key on plus one row per point.
func TestSLOSweepOutput(t *testing.T) {
	cfg := experiments.SLOConfig{
		Seed:     3,
		Sessions: 200,
		Loads:    []float64{0.5, 2},
		Policies: []string{"rbs", "stride"},
		CPUs:     []int{1, 2},
		Duration: 200 * time.Millisecond,
	}
	res := experiments.RunSLOSweep(cfg)
	if want := len(cfg.Policies) * len(cfg.CPUs) * len(cfg.Loads); len(res.Points) != want {
		t.Fatalf("points = %d, want %d", len(res.Points), want)
	}

	var sb strings.Builder
	res.Print(&sb)
	for _, block := range []string{
		"policy=rbs cpus=1", "policy=rbs cpus=2",
		"policy=stride cpus=1", "policy=stride cpus=2",
	} {
		if !strings.Contains(sb.String(), block) {
			t.Errorf("printed curves missing block %q", block)
		}
	}

	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Points) {
		t.Fatalf("CSV rows = %d, want header + %d points", len(lines), len(res.Points))
	}
	if !strings.HasPrefix(lines[0], "policy,cpus,load,offered_per_s,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestSLOSpecScalesWithLoad pins the spec builder the benchmark shares
// with rrexp -slo: arrival rates scale linearly with the load multiplier,
// session anatomy does not, and degenerate inputs are clamped.
func TestSLOSpecScalesWithLoad(t *testing.T) {
	a := experiments.SLOSpec(1, 1000, 1, time.Second, 4)
	b := experiments.SLOSpec(1, 1000, 2, time.Second, 4)
	if b.Sessions.Rate != 2*a.Sessions.Rate || b.Sessions.BurstRate != 2*a.Sessions.BurstRate {
		t.Errorf("rates not linear in load: %+v vs %+v", a.Sessions, b.Sessions)
	}
	if a.Sessions.Stages != b.Sessions.Stages || a.Sessions.Deadline != b.Sessions.Deadline {
		t.Error("load multiplier changed session anatomy")
	}
	c := experiments.SLOSpec(1, 100, 1, 0, 0)
	if c.Duration != time.Second || c.CPUs != 1 {
		t.Errorf("degenerate dur/cpus not clamped: %v, %d", c.Duration, c.CPUs)
	}
}

// TestSLOSpecMemberExitDuringActuation pins the fix for a member exiting
// while core.Controller.apply installs its job's reservation: installing a
// reservation can run the machine, and the eager exit path then removed
// the member from the very slice apply was ranging over, so the loop
// skipped a member and reached the slice's cleared tail (a nil thread).
// These seeds of the benchmark's sessions scenario (20k sessions over 2 s
// on 8 CPUs, rbs, event plane) panicked there; each must now run to the
// end with every started session accounted for.
func TestSLOSpecMemberExitDuringActuation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []uint64{5, 7, 11} {
		res, err := gen.Generate(experiments.SLOSpec(seed, 20000, 1.0, 2*time.Second, 8)).Run(gen.RunOpts{
			Policy: "rbs", Controller: "event", NoInvariants: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := res.Report.Sessions
		if sum := s.Refused + s.Completed + s.Dead + s.Live; sum != s.Started || s.Completed == 0 {
			t.Errorf("seed %d: started %d, refused %d + completed %d + dead %d + live %d",
				seed, s.Started, s.Refused, s.Completed, s.Dead, s.Live)
		}
	}
}

// TestSLOReportPinned pins every SLO report field something reads — the
// wake→dispatch total (Samples, Attainment, P50/P99/P999) and the session
// dimension (Session and each per-kind Sessions entry) — on the rrbench
// sessions machine shape at 2,000 sessions over 500 ms: SLOSpec seeds 1–3
// on 1 and 8 CPUs under the periodic and the event-driven plane. A last
// line runs the rrbench sessions scenario itself (20k sessions over 2 s),
// whose wake→dispatch total overflows its reservoir, so the reservoir's
// replacement draws are pinned too. The values in
// testdata/slo_report_pinned.txt were recorded from the tracker that also
// kept per-job and per-class series; each surviving series keeps its own
// fixed-seed reservoir, so dropping the others must leave every line
// bit-identical.
func TestSLOReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile("testdata/slo_report_pinned.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	type point struct {
		cpus, sessions int
		plane          string
		seed           uint64
		dur            time.Duration
	}
	var points []point
	for _, cpus := range []int{1, 8} {
		for _, plane := range []string{"periodic", "event"} {
			for seed := uint64(1); seed <= 3; seed++ {
				points = append(points, point{cpus, 2000, plane, seed, 500 * time.Millisecond})
			}
		}
	}
	points = append(points, point{8, 20000, "event", 1, 2 * time.Second})
	var got []string
	for _, p := range points {
		res, err := gen.Generate(experiments.SLOSpec(p.seed, p.sessions, 1.0, p.dur, p.cpus)).Run(gen.RunOpts{
			Policy: "rbs", Controller: p.plane, NoInvariants: true,
		})
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		got = append(got, fmt.Sprintf("cpus=%d %s seed=%d sessions=%d dur=%s: %s",
			p.cpus, p.plane, p.seed, p.sessions, p.dur, sloLine(res.SLO)))
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d report lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("SLO report drifted:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// sloLine renders the read fields of one SLO report exactly: counts and
// durations as integers, attainments at full float64 precision, session
// kinds in sorted order.
func sloLine(rep realrate.SLOReport) string {
	stat := func(s realrate.SLOStat) string {
		return fmt.Sprintf("n=%d att=%s p50=%d p99=%d p999=%d", s.Samples,
			strconv.FormatFloat(s.Attainment, 'g', -1, 64), s.P50, s.P99, s.P999)
	}
	line := fmt.Sprintf("total %s | session %s",
		stat(realrate.SLOStat{Samples: rep.Samples, Attainment: rep.Attainment, P50: rep.P50, P99: rep.P99, P999: rep.P999}),
		stat(rep.Session))
	kinds := make([]string, 0, len(rep.Sessions))
	for k := range rep.Sessions {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		line += fmt.Sprintf(" | %s %s", k, stat(rep.Sessions[k]))
	}
	return line
}
