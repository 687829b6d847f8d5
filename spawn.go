package realrate

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// spawnClass is the Figure 2 taxonomy slot a SpawnOption selects.
type spawnClass int

const (
	classDefault spawnClass = iota // no class option: miscellaneous
	classReserve
	classAperiodic
	classRealRate
	classInteractive
	classMisc
	classUnmanaged
	classMember
)

func (c spawnClass) String() string {
	switch c {
	case classReserve:
		return "Reserve"
	case classAperiodic:
		return "Aperiodic"
	case classRealRate:
		return "RealRate"
	case classInteractive:
		return "Interactive"
	case classMisc:
		return "Miscellaneous"
	case classUnmanaged:
		return "Unmanaged"
	case classMember:
		return "InJob"
	default:
		return "default"
	}
}

// spawnSpec accumulates the options of one Spawn call.
type spawnSpec struct {
	class   spawnClass
	ppt     int
	period  time.Duration
	sources []ProgressSource
	member  *Thread

	importance    float64
	importanceSet bool
	tickets       int64
	ticketsSet    bool
	nice          int
	niceSet       bool
	// affinity pins the thread to one CPU; kernel.AffinityAny (the
	// default) lets the machine place and migrate it.
	affinity    int
	affinitySet bool
}

// optKind says what a SpawnOption sets. A class option's kind is its
// class; the zero kind (classDefault) is the zero SpawnOption, which add
// rejects.
type optKind uint8

const (
	optReserve     = optKind(classReserve)
	optAperiodic   = optKind(classAperiodic)
	optRealRate    = optKind(classRealRate)
	optInteractive = optKind(classInteractive)
	optMisc        = optKind(classMisc)
	optUnmanaged   = optKind(classUnmanaged)
	optInJob       = optKind(classMember)
)

const (
	optImportance = optInJob + 1 + iota
	optTickets
	optNice
	optAffinity
	optAnyCPU
)

// SpawnOption configures one Spawn call. The class options — Reserve,
// Aperiodic, RealRate, Interactive, Miscellaneous, Unmanaged, InJob — are
// mutually exclusive; omitting them spawns a miscellaneous thread. An
// option is a plain value built by one of those constructors (or
// Importance, Tickets, Nice, Affinity, AnyCPU); the zero SpawnOption is
// rejected.
type SpawnOption struct {
	kind    optKind
	n       int64 // ppt, tickets, nice value or CPU
	period  time.Duration
	w       float64
	sources []ProgressSource
	th      *Thread
}

// add folds one option into the spec, rejecting invalid arguments and
// conflicts with what the spec already holds. On error the spec is
// unchanged.
func (sp *spawnSpec) add(o SpawnOption) error {
	switch o.kind {
	case optReserve, optAperiodic, optRealRate, optInteractive, optMisc, optUnmanaged, optInJob:
		c := spawnClass(o.kind)
		if c == classRealRate && len(o.sources) == 0 {
			return fmt.Errorf("realrate: RealRate needs at least one progress source")
		}
		if c == classMember && o.th == nil {
			return fmt.Errorf("realrate: InJob(nil)")
		}
		if sp.class != classDefault {
			return fmt.Errorf("realrate: conflicting spawn options %s and %s", sp.class, c)
		}
		sp.class = c
		sp.ppt, sp.period, sp.sources, sp.member = int(o.n), o.period, o.sources, o.th
	case optImportance:
		if o.w <= 0 {
			return fmt.Errorf("realrate: importance must be positive, got %v", o.w)
		}
		sp.importance, sp.importanceSet = o.w, true
	case optTickets:
		if o.n <= 0 {
			return fmt.Errorf("realrate: tickets must be positive, got %d", o.n)
		}
		sp.tickets, sp.ticketsSet = o.n, true
	case optNice:
		sp.nice, sp.niceSet = int(o.n), true
	case optAffinity, optAnyCPU:
		if sp.affinitySet {
			return fmt.Errorf("realrate: conflicting Affinity/AnyCPU options")
		}
		cpu := kernel.AffinityAny
		if o.kind == optAffinity {
			if o.n < 0 {
				return fmt.Errorf("realrate: Affinity(%d): CPU must be non-negative", o.n)
			}
			cpu = int(o.n)
		}
		sp.affinity, sp.affinitySet = cpu, true
	default:
		return fmt.Errorf("realrate: zero SpawnOption; build options with Reserve, RealRate, Importance and the other constructors")
	}
	return nil
}

// Reserve requests a hard reservation: proportion in parts-per-thousand
// over the given period (the paper's real-time class). Admission control
// may reject the request, in which case Spawn returns the error and the
// thread is not created.
func Reserve(proportion int, period time.Duration) SpawnOption {
	return SpawnOption{kind: optReserve, n: int64(proportion), period: period}
}

// Aperiodic requests an aperiodic real-time reservation: known proportion,
// no period; the controller assigns the 30 ms default.
func Aperiodic(proportion int) SpawnOption {
	return SpawnOption{kind: optAperiodic, n: int64(proportion)}
}

// RealRate declares a real-rate thread: the controller estimates its
// proportion from the given progress sources. Its period is the given one,
// or the 30 ms default when period is 0. At least one source is required.
// The option keeps the sources slice, so a caller spawning at a high rate
// can pass one reused array (RealRate(0, srcs[:]...)) instead of a fresh
// variadic slice per call.
func RealRate(period time.Duration, sources ...ProgressSource) SpawnOption {
	return SpawnOption{kind: optRealRate, period: period, sources: sources}
}

// Interactive declares a tty-server thread: small period, proportion
// estimated from its bursts.
func Interactive() SpawnOption { return SpawnOption{kind: optInteractive} }

// Miscellaneous declares a thread with no information at all (the default):
// the constant-pressure heuristic grows its allocation until satisfied or
// squished.
func Miscellaneous() SpawnOption { return SpawnOption{kind: optMisc} }

// Unmanaged spawns the thread outside the controller entirely; it runs in
// the leftover CPU below every registered thread, like unregistered jobs
// under the prototype's default Linux scheduler.
func Unmanaged() SpawnOption { return SpawnOption{kind: optUnmanaged} }

// InJob spawns the thread as a member of th's job: the paper's "job is a
// collection of cooperating threads". The job's allocation is split across
// its members; its progress and usage are their combined metrics and CPU.
func InJob(th *Thread) SpawnOption { return SpawnOption{kind: optInJob, th: th} }

// Importance sets the weighted-fair-share weight (default 1). Higher
// importance loses less under overload but can never starve others.
// Ignored under baseline policies, which have no squish.
func Importance(w float64) SpawnOption { return SpawnOption{kind: optImportance, w: w} }

// Tickets assigns a share count to the thread under a ticket-based policy
// (Stride or Lottery). Spawning with Tickets under any other policy is an
// error.
func Tickets(n int64) SpawnOption { return SpawnOption{kind: optTickets, n: n} }

// Nice sets the thread's nice value under the Linux baseline policy.
// Spawning with Nice under any other policy is an error.
func Nice(n int) SpawnOption { return SpawnOption{kind: optNice, n: int64(n)} }

// Affinity pins the thread to one CPU of a multi-CPU machine (see
// Config.CPUs): it is placed there, only ever dispatched there, and never
// migrated by work-pull. Spawning with a CPU outside [0, Config.CPUs) is
// an error. Composes with every class option.
//
// Pinning trades load balance for placement control: a pinned thread
// cannot be pulled to an idle CPU, so a pile-up behind another pinned
// thread is the caller's to resolve.
func Affinity(cpu int) SpawnOption { return SpawnOption{kind: optAffinity, n: int64(cpu)} }

// AnyCPU declares the thread runnable on every CPU — the default. It
// exists to make the placement choice explicit at call sites that mix
// pinned and unpinned spawns.
func AnyCPU() SpawnOption { return SpawnOption{kind: optAnyCPU} }

// Spawn creates a thread running prog, classified by the given options
// (see the paper's Figure 2 taxonomy). With no class option the thread is
// miscellaneous. It is the one way to create a thread, and it allocates
// nothing beyond the thread itself: the options are values folded into a
// spec on the stack.
//
// Under a baseline policy (see Config.Policy) there is no feedback
// controller: every class spawns a plain thread, and a Reserve or
// Aperiodic proportion degrades to the nearest share hint the policy can
// express (tickets equal to the requested ppt under Stride and Lottery;
// nothing under Linux and RoundRobin).
func (s *System) Spawn(name string, prog Program, opts ...SpawnOption) (*Thread, error) {
	sp := spawnSpec{affinity: kernel.AffinityAny}
	for _, o := range opts {
		if err := sp.add(o); err != nil {
			return nil, err
		}
	}
	if sp.affinity != kernel.AffinityAny && sp.affinity >= s.kern.NumCPUs() {
		return nil, fmt.Errorf("realrate: Affinity(%d) outside the machine's %d CPUs", sp.affinity, s.kern.NumCPUs())
	}
	if s.ctl == nil {
		return s.spawnBaseline(name, prog, &sp)
	}
	if sp.ticketsSet || sp.niceSet {
		return nil, fmt.Errorf("realrate: Tickets/Nice apply to baseline policies, not %s", s.policy.Name())
	}

	// Overload backpressure: at the governor's throttle rung and above,
	// new controller-managed admissions are refused with a typed
	// *OverloadError carrying a retry-after hint — the caller gets
	// backpressure instead of joining an already-saturated squish.
	// Unmanaged threads (outside the controller) and members joining an
	// existing job are not new admissions.
	if sp.class != classUnmanaged && sp.class != classMember {
		if err := s.ctl.AdmissionVeto(); err != nil {
			s.fireAdmission(AdmissionEvent{
				Time: s.Now(), Requested: sp.ppt, Period: sp.period,
				Accepted: false, Err: err,
			})
			return nil, err
		}
	}

	if sp.class == classMember {
		if sp.member.exited {
			return nil, fmt.Errorf("realrate: cannot add members to job of exited thread %q", sp.member.name)
		}
		if sp.member.job == nil {
			return nil, fmt.Errorf("realrate: cannot add members to an unmanaged thread")
		}
		if sp.importanceSet {
			// Importance belongs to the whole job, not one member; silently
			// reweighting the job here would be surprising.
			return nil, fmt.Errorf("realrate: Importance cannot be combined with InJob; set it on the job's primary thread")
		}
		member := s.spawn(name, prog, sp.affinity)
		member.job = sp.member.job
		s.ctl.AddMember(member.job, member.t)
		return member, nil
	}

	th := s.spawn(name, prog, sp.affinity)
	switch sp.class {
	case classReserve:
		job, err := s.ctl.AddRealTime(th.t, sp.ppt, sim.FromStd(sp.period))
		s.fireAdmission(AdmissionEvent{
			Time: s.Now(), Thread: th, Requested: sp.ppt, Period: sp.period,
			Accepted: err == nil, Err: err,
		})
		if err != nil {
			// Retire the just-created thread; it never ran.
			s.removeThread(th)
			return nil, err
		}
		th.job = job
	case classAperiodic:
		job, err := s.ctl.AddAperiodicRealTime(th.t, sp.ppt)
		s.fireAdmission(AdmissionEvent{
			Time: s.Now(), Thread: th, Requested: sp.ppt,
			Accepted: err == nil, Err: err,
		})
		if err != nil {
			s.removeThread(th)
			return nil, err
		}
		th.job = job
	case classRealRate:
		for _, src := range sp.sources {
			s.registerSource(th, src)
		}
		th.job = s.ctl.AddRealRate(th.t, sim.FromStd(sp.period))
	case classInteractive:
		th.job = s.ctl.AddInteractive(th.t)
	case classUnmanaged:
		// Outside the controller: job stays nil.
	default: // classMisc and no class option
		th.job = s.ctl.AddMiscellaneous(th.t)
	}
	if sp.importanceSet {
		if th.job == nil {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: importance needs a controller-managed thread")
		}
		s.ctl.SetImportance(th.job, sp.importance)
	}
	return th, nil
}

// spawnBaseline creates a thread under a controller-less baseline policy,
// mapping the spec to whatever the policy can express.
func (s *System) spawnBaseline(name string, prog Program, sp *spawnSpec) (*Thread, error) {
	if sp.class == classMember {
		return nil, fmt.Errorf("realrate: policy %s has no jobs; spawn a plain thread instead", s.policy.Name())
	}
	th := s.spawn(name, prog, sp.affinity)
	for _, src := range sp.sources {
		// Progress sources still register, so tools can sample pressure
		// even though no controller consumes it.
		s.registerSource(th, src)
	}
	if sp.ticketsSet {
		tp, ok := s.ticketPolicy()
		if !ok {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: policy %s does not take tickets", s.policy.Name())
		}
		tp.SetTickets(th.t, sp.tickets)
	} else if (sp.class == classReserve || sp.class == classAperiodic) && sp.ppt > 0 {
		// Degrade a reservation to a proportional share where possible.
		if tp, ok := s.ticketPolicy(); ok {
			tp.SetTickets(th.t, int64(sp.ppt))
		}
	}
	if sp.niceSet {
		lp, ok := s.policy.(interface{ SetNice(*kernel.Thread, int) })
		if !ok {
			s.removeThread(th)
			return nil, fmt.Errorf("realrate: policy %s does not take nice values", s.policy.Name())
		}
		lp.SetNice(th.t, sp.nice)
	}
	return th, nil
}

// ticketPolicy returns the underlying ticket-share setter when the
// system's policy is stride or lottery.
func (s *System) ticketPolicy() (interface{ SetTickets(*kernel.Thread, int64) }, bool) {
	tp, ok := s.policy.(interface{ SetTickets(*kernel.Thread, int64) })
	return tp, ok
}
