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

// setClass records a class-selecting option, rejecting conflicts.
func (sp *spawnSpec) setClass(c spawnClass) error {
	if sp.class != classDefault {
		return fmt.Errorf("realrate: conflicting spawn options %s and %s", sp.class, c)
	}
	sp.class = c
	return nil
}

// SpawnOption configures one Spawn call. The class options — Reserve,
// Aperiodic, RealRate, Interactive, Miscellaneous, Unmanaged, InJob — are
// mutually exclusive; omitting them spawns a miscellaneous thread.
type SpawnOption func(*spawnSpec) error

// Reserve requests a hard reservation: proportion in parts-per-thousand
// over the given period (the paper's real-time class). Admission control
// may reject the request, in which case Spawn returns the error and the
// thread is not created.
func Reserve(proportion int, period time.Duration) SpawnOption {
	return func(sp *spawnSpec) error {
		sp.ppt = proportion
		sp.period = period
		return sp.setClass(classReserve)
	}
}

// Aperiodic requests an aperiodic real-time reservation: known proportion,
// no period; the controller assigns the 30 ms default.
func Aperiodic(proportion int) SpawnOption {
	return func(sp *spawnSpec) error {
		sp.ppt = proportion
		return sp.setClass(classAperiodic)
	}
}

// RealRate declares a real-rate thread: the controller estimates its
// proportion (and, with period 0, its period) from the given progress
// sources. At least one source is required.
func RealRate(period time.Duration, sources ...ProgressSource) SpawnOption {
	return func(sp *spawnSpec) error {
		if len(sources) == 0 {
			return fmt.Errorf("realrate: RealRate needs at least one progress source")
		}
		sp.period = period
		sp.sources = sources
		return sp.setClass(classRealRate)
	}
}

// Interactive declares a tty-server thread: small period, proportion
// estimated from its bursts.
func Interactive() SpawnOption {
	return func(sp *spawnSpec) error { return sp.setClass(classInteractive) }
}

// Miscellaneous declares a thread with no information at all (the default):
// the constant-pressure heuristic grows its allocation until satisfied or
// squished.
func Miscellaneous() SpawnOption {
	return func(sp *spawnSpec) error { return sp.setClass(classMisc) }
}

// Unmanaged spawns the thread outside the controller entirely; it runs in
// the leftover CPU below every registered thread, like unregistered jobs
// under the prototype's default Linux scheduler.
func Unmanaged() SpawnOption {
	return func(sp *spawnSpec) error { return sp.setClass(classUnmanaged) }
}

// InJob spawns the thread as a member of th's job: the paper's "job is a
// collection of cooperating threads". The job's allocation is split across
// its members; its progress and usage are their combined metrics and CPU.
func InJob(th *Thread) SpawnOption {
	return func(sp *spawnSpec) error {
		if th == nil {
			return fmt.Errorf("realrate: InJob(nil)")
		}
		sp.member = th
		return sp.setClass(classMember)
	}
}

// Importance sets the weighted-fair-share weight (default 1). Higher
// importance loses less under overload but can never starve others.
// Ignored under baseline policies, which have no squish.
func Importance(w float64) SpawnOption {
	return func(sp *spawnSpec) error {
		if w <= 0 {
			return fmt.Errorf("realrate: importance must be positive, got %v", w)
		}
		sp.importance = w
		sp.importanceSet = true
		return nil
	}
}

// Tickets assigns a share count to the thread under a ticket-based policy
// (Stride or Lottery). Spawning with Tickets under any other policy is an
// error.
func Tickets(n int64) SpawnOption {
	return func(sp *spawnSpec) error {
		if n <= 0 {
			return fmt.Errorf("realrate: tickets must be positive, got %d", n)
		}
		sp.tickets = n
		sp.ticketsSet = true
		return nil
	}
}

// Nice sets the thread's nice value under the Linux baseline policy.
// Spawning with Nice under any other policy is an error.
func Nice(n int) SpawnOption {
	return func(sp *spawnSpec) error {
		sp.nice = n
		sp.niceSet = true
		return nil
	}
}

// Affinity pins the thread to one CPU of a multi-CPU machine (see
// Config.CPUs): it is placed there, only ever dispatched there, and never
// migrated by work-pull. Spawning with a CPU outside [0, Config.CPUs) is
// an error. Composes with every class option.
//
// Pinning trades load balance for placement control: a pinned thread
// cannot be pulled to an idle CPU, so a pile-up behind another pinned
// thread is the caller's to resolve.
func Affinity(cpu int) SpawnOption {
	return func(sp *spawnSpec) error {
		if sp.affinitySet {
			return fmt.Errorf("realrate: conflicting Affinity/AnyCPU options")
		}
		if cpu < 0 {
			return fmt.Errorf("realrate: Affinity(%d): CPU must be non-negative", cpu)
		}
		sp.affinity = cpu
		sp.affinitySet = true
		return nil
	}
}

// AnyCPU declares the thread runnable on every CPU — the default. It
// exists to make the placement choice explicit at call sites that mix
// pinned and unpinned spawns.
func AnyCPU() SpawnOption {
	return func(sp *spawnSpec) error {
		if sp.affinitySet {
			return fmt.Errorf("realrate: conflicting Affinity/AnyCPU options")
		}
		sp.affinity = kernel.AffinityAny
		sp.affinitySet = true
		return nil
	}
}

// Spawn creates a thread running prog, classified by the given options
// (see the paper's Figure 2 taxonomy). With no class option the thread is
// miscellaneous.
//
// Under a baseline policy (see Config.Policy) there is no feedback
// controller: every class spawns a plain thread, and a Reserve or
// Aperiodic proportion degrades to the nearest share hint the policy can
// express (tickets equal to the requested ppt under Stride and Lottery;
// nothing under Linux and RoundRobin).
func (s *System) Spawn(name string, prog Program, opts ...SpawnOption) (*Thread, error) {
	sp := spawnSpec{affinity: kernel.AffinityAny}
	for _, opt := range opts {
		if err := opt(&sp); err != nil {
			return nil, err
		}
	}
	return s.spawnSpecd(name, prog, &sp)
}

// SpawnClass selects the Figure 2 taxonomy slot of a SpawnReq. The zero
// value is miscellaneous, mirroring Spawn with no class option.
type SpawnClass int

// SpawnReq classes, mirroring the Spawn class options.
const (
	// SpawnMisc declares nothing; the constant-pressure heuristic grows
	// the thread's allocation until satisfied or squished (the default).
	SpawnMisc SpawnClass = iota
	// SpawnReserve requests a hard reservation of Proportion over Period.
	SpawnReserve
	// SpawnAperiodic requests Proportion with the default period.
	SpawnAperiodic
	// SpawnRealRate has proportion (and, with Period 0, period) estimated
	// from Sources.
	SpawnRealRate
	// SpawnInteractive declares a tty-server thread.
	SpawnInteractive
	// SpawnUnmanaged runs outside the controller entirely.
	SpawnUnmanaged
	// SpawnMember joins the thread to Job's existing job.
	SpawnMember
)

// SpawnReq is the struct form of a Spawn call for allocation-sensitive
// callers: an open-loop storm driver can hold one SpawnReq (and its
// Sources backing array) and reuse it for every admission, where the
// variadic Spawn builds an options slice and a closure per option on each
// call. Semantics are identical to the equivalent Spawn options.
type SpawnReq struct {
	// Class selects the taxonomy slot; the zero value is miscellaneous.
	Class SpawnClass
	// Proportion (ppt) applies to SpawnReserve and SpawnAperiodic.
	Proportion int
	// Period applies to SpawnReserve (required) and SpawnRealRate
	// (0 lets the controller assign it).
	Period time.Duration
	// Sources are the progress sources of a SpawnRealRate thread.
	Sources []ProgressSource
	// Job is the primary thread whose job a SpawnMember thread joins.
	Job *Thread
	// Importance, when nonzero, sets the weighted-fair-share weight.
	Importance float64
	// Pinned pins the thread to CPU (Pinned false ignores CPU and lets
	// the machine place and migrate the thread).
	Pinned bool
	CPU    int
}

// SpawnFrom creates a thread running prog, classified by req. It is
// Spawn for hot paths: no option closures, no variadic slice, and a spec
// that never escapes to the heap.
func (s *System) SpawnFrom(name string, prog Program, req *SpawnReq) (*Thread, error) {
	sp := spawnSpec{affinity: kernel.AffinityAny}
	switch req.Class {
	case SpawnMisc:
		sp.class = classMisc
	case SpawnReserve:
		sp.class = classReserve
		sp.ppt, sp.period = req.Proportion, req.Period
	case SpawnAperiodic:
		sp.class = classAperiodic
		sp.ppt = req.Proportion
	case SpawnRealRate:
		if len(req.Sources) == 0 {
			return nil, fmt.Errorf("realrate: SpawnRealRate needs at least one progress source")
		}
		sp.class = classRealRate
		sp.period, sp.sources = req.Period, req.Sources
	case SpawnInteractive:
		sp.class = classInteractive
	case SpawnUnmanaged:
		sp.class = classUnmanaged
	case SpawnMember:
		if req.Job == nil {
			return nil, fmt.Errorf("realrate: SpawnMember needs a Job thread")
		}
		sp.class = classMember
		sp.member = req.Job
	default:
		return nil, fmt.Errorf("realrate: unknown SpawnClass %d", req.Class)
	}
	if req.Importance != 0 {
		if req.Importance < 0 {
			return nil, fmt.Errorf("realrate: importance must be positive, got %v", req.Importance)
		}
		sp.importance, sp.importanceSet = req.Importance, true
	}
	if req.Pinned {
		if req.CPU < 0 {
			return nil, fmt.Errorf("realrate: Affinity(%d): CPU must be non-negative", req.CPU)
		}
		sp.affinity, sp.affinitySet = req.CPU, true
	}
	return s.spawnSpecd(name, prog, &sp)
}

// spawnSpecd is the class dispatch shared by Spawn and SpawnFrom.
func (s *System) spawnSpecd(name string, prog Program, sp *spawnSpec) (*Thread, error) {
	if sp.affinity != kernel.AffinityAny && sp.affinity >= s.kern.NumCPUs() {
		return nil, fmt.Errorf("realrate: Affinity(%d) outside the machine's %d CPUs", sp.affinity, s.kern.NumCPUs())
	}
	if s.ctl == nil {
		return s.spawnBaseline(name, prog, sp)
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
