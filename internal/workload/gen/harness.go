package gen

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Point identifies one replayable scenario execution: everything needed to
// regenerate and re-run it is in these five values, so a Point converts to
// (and from) an rrexp command line.
type Point struct {
	Family string
	Seed   uint64
	Policy string
	// Scale multiplies taskset counts and arrival/churn rates (the
	// shrinker's axis); 0 or 1 means full size.
	Scale float64
	// Duration overrides the family's drawn duration (0: keep it).
	Duration time.Duration
	// CPUs overrides the machine's CPU count (0: the family's own, which
	// is 1 everywhere except the smp family's drawn value).
	CPUs int
	// Controller selects the control-plane sampling mode ("" or
	// "periodic": every job every interval; "event": event-driven).
	Controller string
	// Shards splits the controller across this many shard threads (0 or
	// 1: the paper's single controller thread).
	Shards int
}

// Replay formats the rrexp invocation that reproduces this point
// deterministically.
func (p Point) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rrexp -gen -scenario %s -seed %d -policy %s", p.Family, p.Seed, p.Policy)
	if p.Scale > 0 && p.Scale != 1 {
		fmt.Fprintf(&b, " -scale %g", p.Scale)
	}
	if p.Duration > 0 {
		fmt.Fprintf(&b, " -gendur %dms", p.Duration.Milliseconds())
	}
	if p.CPUs > 0 {
		fmt.Fprintf(&b, " -cpus %d", p.CPUs)
	}
	if p.Controller != "" && p.Controller != "periodic" {
		fmt.Fprintf(&b, " -controller %s", p.Controller)
	}
	if p.Shards > 1 {
		fmt.Fprintf(&b, " -shards %d", p.Shards)
	}
	return b.String()
}

// ParseReplay parses a command line printed by Point.Replay back into the
// Point it encodes — the other half of the replay contract. A printed
// failing seed is only useful if it actually reproduces, so the round-trip
// (Replay → ParseReplay → RunPoint → byte-identical dispatch trace) is
// pinned by a test; a run-affecting flag added to one side and forgotten
// on the other fails that test instead of silently replaying the wrong
// scenario.
func ParseReplay(line string) (Point, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "rrexp" {
		return Point{}, fmt.Errorf("gen: replay line must start with \"rrexp\", got %q", line)
	}
	var p Point
	gen := false
	for i := 1; i < len(fields); {
		flag := fields[i]
		if flag == "-gen" {
			gen = true
			i++
			continue
		}
		if i+1 >= len(fields) {
			return Point{}, fmt.Errorf("gen: replay flag %s is missing its value", flag)
		}
		v := fields[i+1]
		i += 2
		var err error
		switch flag {
		case "-scenario":
			p.Family = v
		case "-seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "-policy":
			p.Policy = v
		case "-scale":
			p.Scale, err = strconv.ParseFloat(v, 64)
		case "-gendur":
			p.Duration, err = time.ParseDuration(v)
		case "-cpus":
			p.CPUs, err = strconv.Atoi(v)
		case "-controller":
			p.Controller = v
		case "-shards":
			p.Shards, err = strconv.Atoi(v)
		default:
			return Point{}, fmt.Errorf("gen: replay line carries unknown flag %s", flag)
		}
		if err != nil {
			return Point{}, fmt.Errorf("gen: replay flag %s: bad value %q: %v", flag, v, err)
		}
	}
	if !gen {
		return Point{}, fmt.Errorf("gen: replay line is not a -gen invocation: %q", line)
	}
	if p.Family == "" || p.Policy == "" {
		return Point{}, fmt.Errorf("gen: replay line needs -scenario and -policy: %q", line)
	}
	return p, nil
}

// Spec derives the point's declarative spec.
func (p Point) Spec() (Spec, error) {
	sp, err := ForSeed(p.Family, p.Seed)
	if err != nil {
		return Spec{}, err
	}
	if p.Scale > 0 && p.Scale != 1 {
		sp = sp.Scale(p.Scale)
	}
	if p.Duration > 0 {
		sp.Duration = p.Duration
	}
	if p.CPUs > 0 {
		sp.CPUs = p.CPUs
	}
	return sp, nil
}

// RunPoint generates and executes one point.
func RunPoint(p Point) (*RunResult, error) {
	sp, err := p.Spec()
	if err != nil {
		return nil, err
	}
	return Generate(sp).Run(RunOpts{Policy: p.Policy, Controller: p.Controller, Shards: p.Shards})
}

// CheckOpts configures a harness sweep.
type CheckOpts struct {
	// Policies restricts the disciplines (nil: all five).
	Policies []string
	// Scale/Duration/CPUs pass through to every point.
	Scale    float64
	Duration time.Duration
	CPUs     int
	// Controller/Shards select the control-plane configuration for every
	// point.
	Controller string
	Shards     int
}

// Check runs one (family, seed) scenario under the requested policies and
// returns every violation, each carrying a minimized replayable command
// line, plus the per-policy reports.
func Check(family string, seed uint64, opts CheckOpts) ([]Violation, []Report, error) {
	policies := opts.Policies
	if len(policies) == 0 {
		policies = Policies()
	}
	var (
		all     []Violation
		reports []Report
	)
	for _, pol := range policies {
		p := Point{Family: family, Seed: seed, Policy: pol,
			Scale: opts.Scale, Duration: opts.Duration, CPUs: opts.CPUs,
			Controller: opts.Controller, Shards: opts.Shards}
		res, err := RunPoint(p)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, res.Report)
		if len(res.Report.Violations) == 0 {
			continue
		}
		replay := Shrink(p).Replay()
		for _, v := range res.Report.Violations {
			v.Replay = replay
			all = append(all, v)
		}
	}
	return all, reports, nil
}

// stillFails re-runs a candidate point and reports whether any invariant
// still breaks. Errors count as not failing (the shrinker must not wander
// into invalid specs).
func stillFails(p Point) bool {
	res, err := RunPoint(p)
	return err == nil && len(res.Report.Violations) > 0
}

// Shrink greedily minimizes a failing point along the two axes that stay
// expressible on the rrexp command line: run duration and workload scale.
// Generation is deterministic, so the returned point reproduces a failure
// exactly; if no smaller point still fails, the original is returned.
func Shrink(p Point) Point {
	sp, err := p.Spec()
	if err != nil {
		return p
	}
	best := p
	if best.Duration == 0 {
		best.Duration = sp.Duration
	}
	if best.Scale == 0 {
		best.Scale = 1
	}
	improved := true
	for tries := 0; improved && tries < 8; tries++ {
		improved = false
		if half := best.Duration / 2; half >= 50*time.Millisecond {
			cand := best
			cand.Duration = half.Round(time.Millisecond)
			if stillFails(cand) {
				best, improved = cand, true
				continue
			}
		}
		if half := best.Scale / 2; half >= 0.1 {
			cand := best
			cand.Scale = half
			if stillFails(cand) {
				best, improved = cand, true
			}
		}
	}
	return best
}
