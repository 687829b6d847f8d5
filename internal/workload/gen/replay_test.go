package gen_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/workload/gen"
)

// TestReplayRoundTrip pins the replay contract end to end: a Point prints
// a command line, ParseReplay recovers the identical Point, and re-running
// the parsed point reproduces the original's dispatch trace byte for byte.
// A run-affecting flag added to Replay but forgotten in ParseReplay (or
// vice versa) breaks this test instead of silently replaying the wrong
// scenario from a CI failure report.
func TestReplayRoundTrip(t *testing.T) {
	points := []gen.Point{
		// Minimal: only the three required fields.
		{Family: "churn", Seed: 17, Policy: "stride"},
		// Every optional flag set — the slo family under the sharded
		// event-driven plane, shrunk and shortened.
		{Family: "slo", Seed: 3, Policy: "rbs", Scale: 0.5,
			Duration: 200 * time.Millisecond, CPUs: 4,
			Controller: "event", Shards: 4},
	}
	for _, p := range points {
		line := p.Replay()
		q, err := gen.ParseReplay(line)
		if err != nil {
			t.Fatalf("ParseReplay(%q): %v", line, err)
		}
		if q != p {
			t.Fatalf("round trip changed the point:\n  printed %q\n  got  %+v\n  want %+v", line, q, p)
		}
		trace := func(p gen.Point) []byte {
			sp, err := p.Spec()
			if err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			res, err := gen.Generate(sp).Run(gen.RunOpts{
				Policy: p.Policy, Controller: p.Controller, Shards: p.Shards, Trace: true,
			})
			if err != nil {
				t.Fatalf("%+v: %v", p, err)
			}
			if len(res.TraceCSV) == 0 {
				t.Fatalf("%+v: empty dispatch trace", p)
			}
			return res.TraceCSV
		}
		if orig, replayed := trace(p), trace(q); !bytes.Equal(orig, replayed) {
			t.Errorf("%q: replayed dispatch trace differs from original (%d vs %d bytes)",
				line, len(orig), len(replayed))
		}
	}
}

// TestParseReplayRejectsMalformed pins the error paths: lines that are not
// replay lines must be rejected, not half-parsed.
func TestParseReplayRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"",
		"rrexp -figures",
		"rrexp -gen -scenario churn",     // missing -policy
		"rrexp -gen -policy rbs -seed 1", // missing -scenario
		"rrexp -gen -scenario churn -policy rbs -seed",        // flag without value
		"rrexp -gen -scenario churn -policy rbs -warp 9",      // unknown flag
		"rrexp -gen -scenario churn -policy rbs -seed banana", // untyped value
		"make test",
	} {
		if p, err := gen.ParseReplay(line); err == nil {
			t.Errorf("ParseReplay(%q) accepted: %+v", line, p)
		}
	}
}
