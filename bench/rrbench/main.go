// Command rrbench is the repository's benchmark. It runs a workload — the
// paper's figures, a dispatch storm, the control plane at 100k jobs, or
// open-loop session storms — for a fixed time, checks every output, and
// prints each metric with its unit, ending with one JSON line:
//
//	bash bench/run.sh -workload plane -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload all -seed 1 -trace 1 -out base.json
//	bash bench/run.sh -compare base.json cand.json
//
// With -trace 0 the JSON line carries the end-to-end metrics; with
// -trace 1 a profiled phase follows the timed one and the line carries the
// per-layer metrics. -out writes the full record: host, seed, rep counts,
// and every metric's median, quartiles and raw values. -workload all runs
// each workload in its own process. -compare judges a candidate record
// against a base record with the bounds in BENCHMARK.json and exits 1 on a
// regression. bench/README.md defines every metric on every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// record is a result file: the host and settings of one invocation and
// every workload it ran.
type record struct {
	Host      host                `json:"host"`
	Seed      uint64              `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Trace     bool                `json:"trace"`
	Workloads map[string]*wresult `json:"workloads"`
}

// scratchDir holds the traced run's profile and -workload all's child
// records; it is the build directory the benchmark's runner already uses.
const scratchDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper, storm, plane, sessions, or all")
		seed    = flag.Uint64("seed", 1, "workload seed, recorded (no workload's inputs depend on it; see README.md)")
		seconds = flag.Int("seconds", 25, "length of the timed phase in host seconds")
		out     = flag.String("out", "", "write the full record as JSON to this file")
		cmp     = flag.Bool("compare", false, "compare two records: rrbench -compare base.json cand.json")
	)
	var trace traceFlag
	flag.Var(&trace, "trace", "1: add a profiled phase and report the per-layer metrics")
	flag.Parse()
	if *cmp {
		os.Exit(runCompare(flag.Args()))
	}
	if *name == "" || flag.NArg() > 0 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	experiments.SetParallel(false)
	rec := &record{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Trace: bool(trace),
		Workloads: make(map[string]*wresult)}
	var err error
	if *name == "all" {
		err = runChildren(rec)
	} else {
		cfg := config{budget: time.Duration(*seconds) * time.Second, trace: bool(trace),
			size: fullSize, goldens: filepath.Join("testdata", "goldens"), scratch: scratchDir}
		var r *wresult
		if r, err = measure(*name, cfg); err == nil {
			rec.Workloads[*name] = r
		}
	}
	if err == nil && *out != "" {
		err = writeRecord(*out, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, rec) {
		os.Exit(1)
	}
}

// traceFlag takes a value, so that "-trace 0" parses as well as
// "-trace=1"; it accepts whatever strconv.ParseBool does.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// runChildren runs every workload in its own process, so each reports its
// own peak RSS, and merges their records into rec.
func runChildren(rec *record) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	for _, name := range workloadNames {
		part := filepath.Join(scratchDir, fmt.Sprintf("rrbench-%d-%s.json", os.Getpid(), name))
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(rec.Seed, 10),
			"-seconds", strconv.Itoa(rec.Seconds), "-trace", strconv.FormatBool(rec.Trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		runErr := cmd.Run()
		child, err := readRecord(part)
		os.Remove(part)
		if err != nil {
			return fmt.Errorf("workload %s: %v (%v)", name, err, runErr)
		}
		rec.Workloads[name] = child.Workloads[name]
	}
	return nil
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric of rec, then the result line: whether every
// check passed, the operations attempted and failed, and the end-to-end
// metrics (the per-layer ones with -trace 1). Metric names are prefixed
// with the workload when rec holds more than one. It returns whether every
// check passed.
func report(w io.Writer, rec *record) bool {
	type point struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]point `json:"metrics"`
	}{Metrics: make(map[string]point)}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, name := range workloadNames {
		r := rec.Workloads[name]
		if r == nil {
			continue
		}
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, e := range r.Errors {
			fmt.Fprintf(w, "%s: FAIL %s\n", name, e)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if s := r.Metrics[d.name]; s != nil {
				fmt.Fprintf(w, "%-9s %-28s %14.6g %-12s q1 %-10.4g q3 %-10.4g n %d\n",
					name, d.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
		for _, d := range defs {
			if s := r.Metrics[d.name]; s != nil {
				key := d.name
				if len(rec.Workloads) > 1 {
					key = name + "/" + d.name
				}
				line.Metrics[key] = point{s.Value, s.Unit}
			}
		}
	}
	line.Correct = line.Attempted > 0 && line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value was checked finite when recorded
	}
	fmt.Fprintf(w, "%s\n", data)
	return line.Correct
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rrbench -compare base.json cand.json")
		return 2
	}
	regressed, err := compareFiles(os.Stdout, args[0], args[1], "BENCHMARK.json")
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "rrbench:", err)
		return 2
	case regressed:
		return 1
	}
	return 0
}

func compareFiles(w io.Writer, basePath, candPath, specPath string) (regressed bool, err error) {
	a, err := readRecord(basePath)
	if err != nil {
		return false, err
	}
	b, err := readRecord(candPath)
	if err != nil {
		return false, err
	}
	bounds, err := readBounds(specPath)
	if err != nil {
		return false, err
	}
	return compare(w, a, b, bounds), nil
}
