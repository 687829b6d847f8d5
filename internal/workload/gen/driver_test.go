package gen_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload/gen"
)

// TestSessionDriverCheckerInvisible pins the session driver to one code
// path: a run with the invariant checker and the same run with
// NoInvariants must drive sessions identically — equal session counters,
// SLO report, health and control-plane stats, and a byte-identical
// dispatch trace (block rows name the wait queues, so a driver that built
// its pipelines differently with the checker on would show here). The
// oracles then check exactly the code the storm benchmarks measure.
func TestSessionDriverCheckerInvisible(t *testing.T) {
	configs := []struct {
		name       string
		cpus       int
		controller string
		shards     int
	}{
		{"cpus=1/periodic", 1, "periodic", 0},
		{"cpus=4/event/shards=2", 4, "event", 2},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				sp, err := gen.ForSeed("slo", seed)
				if err != nil {
					t.Fatal(err)
				}
				sp.CPUs = cfg.cpus
				sc := gen.Generate(sp)
				for _, policy := range gen.Policies() {
					run := func(noInv bool) *gen.RunResult {
						res, err := sc.Run(gen.RunOpts{
							Policy: policy, Controller: cfg.controller, Shards: cfg.shards,
							Trace: true, NoInvariants: noInv,
						})
						if err != nil {
							t.Fatalf("seed %d %s: %v", seed, policy, err)
						}
						return res
					}
					on, off := run(false), run(true)
					tag := fmt.Sprintf("seed %d %s", seed, policy)
					if on.Report.Sessions != off.Report.Sessions {
						t.Errorf("%s: sessions differ\n  checker %+v\n  none    %+v",
							tag, on.Report.Sessions, off.Report.Sessions)
					}
					if !reflect.DeepEqual(on.SLO, off.SLO) {
						t.Errorf("%s: SLO reports differ", tag)
					}
					if on.Health != off.Health {
						t.Errorf("%s: health differs\n  checker %+v\n  none    %+v", tag, on.Health, off.Health)
					}
					if !reflect.DeepEqual(on.CtlStats, off.CtlStats) {
						t.Errorf("%s: control-plane stats differ\n  checker %+v\n  none    %+v",
							tag, on.CtlStats, off.CtlStats)
					}
					if !bytes.Equal(on.TraceCSV, off.TraceCSV) {
						t.Errorf("%s: dispatch traces differ: %s", tag, firstDiff(on.TraceCSV, off.TraceCSV))
					}
				}
			}
		})
	}
}

// firstDiff reports the first differing line of two CSV traces.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}
