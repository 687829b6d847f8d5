package gen

import (
	"fmt"
	"strconv"
	"time"

	realrate "repro"
)

// The slo family's live-service session model. A session is one user's
// short streaming interaction: a multi-stage pipeline (ingest →
// transform* → deliver) of real-rate work chained through bounded
// queues, spawned whole at its drawn arrival instant and measured
// end-to-end against a per-session deadline. Sessions arrive open-loop
// at service rates (an MMPP burst process under a diurnal envelope, see
// drawSessionArrivals), so at scale the system sees what a live service
// sees: admission storms, importance-ordered shedding of best-effort
// users, and an attainment curve that bends as offered load climbs.
//
// One session is ONE job: the ingest thread is the primary (admission
// applies to it alone) and the downstream stages join its job with
// InJob, which is exempt from the admission veto — a session is
// admitted or refused atomically, never half-spawned. A drawn fraction
// of sessions is best-effort (weighted miscellaneous primaries): those
// are what the governor sheds, in drawn-importance order, when the
// storm outruns the machine.

// sessionPlan is one drawn session arrival.
type sessionPlan struct {
	at         time.Duration
	importance float64
	bestEffort bool
}

// SessionReport summarizes one run's session outcomes. Every started
// session lands in exactly one of Refused/Completed/Dead/Live (the
// conservation oracle); attainment is judged over completed sessions
// only — a session still in flight at run end has an open edge that
// must not be counted as either met or missed.
type SessionReport struct {
	// Started counts sessions whose arrival fired (spawn attempted).
	Started int
	// Refused counts primaries rejected at admission (governor
	// backpressure under overload).
	Refused int
	// Completed counts sessions whose final stage delivered the full
	// payload.
	Completed int
	// Dead counts sessions that lost a stage involuntarily (shed or
	// killed) before completing.
	Dead int
	// Live counts sessions still in flight at run end.
	Live int
	// Met counts completed sessions inside the deadline.
	Met int
	// PeakLive is the high-water mark of concurrently live sessions.
	PeakLive int
	// Attainment is Met/Completed; Goodput is Met/Started — the
	// service-level view that also charges refusals and deaths.
	Attainment float64
	Goodput    float64
}

// sessionRef resolves an exiting thread to its session and stage.
type sessionRef struct {
	st    *sessionState
	stage int
}

// sessionState is one session's live bookkeeping. States are pooled: a
// terminal session's state — queues, thread slots, embedded stage
// programs — is recycled to a later arrival instead of being reallocated
// per session.
type sessionState struct {
	id      int
	arrival time.Duration
	queues  []*realrate.Queue
	threads []*realrate.Thread
	// done[i] is set by stage i's program just before its voluntary
	// Exit; an OnExit with done[stage] unset is involuntary (shed or
	// killed) and kills the session.
	done            []bool
	completed, dead bool

	// idx is the state's position in sr.sess for O(1) swap-removal (−1
	// when not listed); alive counts threads that have not yet exited —
	// the state recycles when it reaches zero on a terminal session.
	idx   int
	alive int
	// srcLink is the ingest stage's producer link, boxed once per pooled
	// state so re-admission does not re-box the interface value.
	srcLink realrate.ProgressSource
	// The stage programs live inside the state (reset per admission), so
	// a session spawns zero program closures.
	src      srcState
	mids     []midState
	sink     sinkState
	freeNext *sessionState
}

// sessionRun drives the planned sessions through one run. It implements
// realrate.Observer (exit edges only) to detect involuntary stage
// deaths and cascade-kill the survivors.
type sessionRun struct {
	realrate.NopObserver
	r        *run
	spec     SessionSpec
	deadline time.Duration
	stages   int
	chunks   int64
	chunk    int64
	work     int64

	sess []*sessionState
	byTh map[*realrate.Thread]sessionRef

	live, peakLive              int
	started, refused, completed int
	dead, met                   int

	violations []Violation

	// Pooled session states, one rolling arrival timer for the whole
	// plan list, per-kind interned thread names, and a reused SpawnReq,
	// so an arrival allocates no timer, program or option closure.
	names    [2]sessionNames // indexed rr=0, be=1
	plans    []sessionPlan
	next     int
	arr      *realrate.Timer
	freeSess *sessionState
	slots    int
	req      realrate.SpawnReq
	srcSrc   [1]realrate.ProgressSource

	// Fresh-slot build slabs: a saturated storm's pool can only serve
	// sessions that have fully retired, so the peak-live population is
	// built fresh — these chunks amortize that construction to a handful
	// of allocations per 256 slots instead of ~6 per slot.
	stSlab   []sessionState
	doneSlab []bool
	qSlab    []*realrate.Queue
	thSlab   []*realrate.Thread
	midSlab  []midState
	nameBuf  []byte
}

// sessionNames are one session kind's interned thread names.
type sessionNames struct {
	kind, src, sink string
	mid             []string // mid[s-1] names stage s
}

func makeSessionNames(kind string, stages int) sessionNames {
	n := sessionNames{kind: kind, src: "sess." + kind + ".src", sink: "sess." + kind + ".sink"}
	for s := 1; s < stages-1; s++ {
		n.mid = append(n.mid, fmt.Sprintf("sess.%s.s%d", kind, s))
	}
	return n
}

func newSessionRun(r *run, spec SessionSpec) *sessionRun {
	sr := &sessionRun{
		r:        r,
		spec:     spec,
		stages:   spec.Stages,
		chunk:    spec.Chunk,
		work:     spec.Work,
		deadline: spec.Deadline,
		byTh:     make(map[*realrate.Thread]sessionRef),
	}
	if sr.stages < 2 {
		sr.stages = 2
	}
	if sr.chunk <= 0 {
		sr.chunk = 256
	}
	sr.chunks = spec.Bytes / sr.chunk
	if sr.chunks < 1 {
		sr.chunks = 1
	}
	if sr.work <= 0 {
		sr.work = 20_000
	}
	if sr.deadline <= 0 {
		// Keep the runner's met/missed judgment aligned with the SLO
		// tracker's, which falls back the same way.
		sr.deadline = realrate.DefaultSessionSLO
	}
	sr.names[0] = makeSessionNames("rr", sr.stages)
	sr.names[1] = makeSessionNames("be", sr.stages)
	return sr
}

// payload is the total bytes a session moves through each queue.
func (sr *sessionRun) payload() int64 { return sr.chunks * sr.chunk }

// schedule arms the planned arrivals: one rolling Timer walks the
// (monotone) plan list, batching every same-instant arrival through a
// single callback.
func (sr *sessionRun) schedule(plans []sessionPlan) {
	if len(plans) == 0 {
		return
	}
	sr.plans = plans
	sr.arr = sr.r.sys.NewTimer(func(now time.Duration) {
		for sr.next < len(sr.plans) && sr.plans[sr.next].at <= now {
			i := sr.next
			sr.next++
			sr.spawn(i, sr.plans[i], now)
		}
		if sr.next < len(sr.plans) {
			sr.arr.Arm(sr.plans[sr.next].at - now)
		}
	})
	sr.arr.Arm(plans[0].at)
}

// spawn admits one whole session: primary ingest first (where admission
// and the governor's veto apply), then the downstream stages into the
// same job. Threads of every session share per-role names — "sess.rr.s1"
// and friends — so the SLO tracker's by-job dimension stays O(stages),
// not O(sessions). Session state, queues, stage programs, and thread
// names all come from pools or interned tables, so a refused arrival
// allocates nothing and an admitted one allocates only its thread
// handles.
func (sr *sessionRun) spawn(id int, p sessionPlan, now time.Duration) {
	sr.started++
	if sr.spec.MaxLive > 0 && sr.live >= sr.spec.MaxLive {
		// Accept-backlog overflow: the blind connection drop every real
		// front end performs when its listen queue is full. Unlike the
		// governor's veto this needs no controller, so baseline policies
		// shed load here — bluntly, with no importance order and no
		// latency signal — which is exactly the contrast the attainment
		// curves are meant to show.
		sr.refused++
		return
	}
	st := sr.acquireState(id, now)
	names := &sr.names[0]
	if p.bestEffort {
		names = &sr.names[1]
	}

	sr.req = realrate.SpawnReq{Importance: p.importance}
	if p.bestEffort {
		sr.req.Class = realrate.SpawnMisc
	} else {
		sr.req.Class = realrate.SpawnRealRate
		sr.srcSrc[0] = st.srcLink
		sr.req.Sources = sr.srcSrc[:]
	}
	st.src = srcState{sr: sr, st: st, out: st.queues[0], compute: true}
	primary, err := sr.r.sys.SpawnFrom(names.src, &st.src, &sr.req)
	sr.r.chk.spawned(primary, err, false, -1)
	if err != nil {
		sr.refused++
		sr.releaseState(st)
		return
	}
	st.threads = append(st.threads, primary)
	sr.byTh[primary] = sessionRef{st, 0}
	st.alive = 1
	sr.live++
	if sr.live > sr.peakLive {
		sr.peakLive = sr.live
	}
	st.idx = len(sr.sess)
	sr.sess = append(sr.sess, st)

	// Under rbs, members join the primary's job: exempt from the
	// admission veto, so an admitted session never half-spawns.
	member := sr.r.policy == "rbs"
	for s := 1; s < sr.stages; s++ {
		var prog realrate.Program
		var name string
		if s < sr.stages-1 {
			m := &st.mids[s-1]
			*m = midState{sr: sr, st: st, stage: s, in: st.queues[s-1], out: st.queues[s]}
			prog, name = m, names.mid[s-1]
		} else {
			st.sink = sinkState{sr: sr, st: st, kind: names.kind, in: st.queues[s-1], consume: true}
			prog, name = &st.sink, names.sink
		}
		sr.req = realrate.SpawnReq{}
		if member {
			sr.req.Class = realrate.SpawnMember
			sr.req.Job = primary
		}
		mth, merr := sr.r.sys.SpawnFrom(name, prog, &sr.req)
		sr.r.chk.spawned(mth, merr, false, -1)
		if merr != nil {
			// Members are veto-exempt; a refusal here is a harness bug.
			sr.violate("session-conservation", now,
				"session %d stage %d refused after the primary was admitted: %v", id, s, merr)
			sr.killSession(st, nil)
			return
		}
		st.threads = append(st.threads, mth)
		sr.byTh[mth] = sessionRef{st, s}
		st.alive++
	}
}

// acquireState returns a scrubbed session state: from the pool when a
// previous session has fully retired, otherwise freshly built with its
// own queue pipeline. Queues are named per pool slot, not per session: a
// recycled queue keeps its slot name across logical sessions, and the
// checker watches it once, from its first build — Recycle zeroes
// produced, consumed and fill together, so queue conservation holds
// across every reuse.
func (sr *sessionRun) acquireState(id int, now time.Duration) *sessionState {
	if st := sr.freeSess; st != nil {
		sr.freeSess = st.freeNext
		st.freeNext = nil
		st.id, st.arrival = id, now
		st.completed, st.dead = false, false
		for i := range st.done {
			st.done[i] = false
		}
		for _, q := range st.queues {
			q.Recycle()
		}
		return st
	}
	if len(sr.stSlab) == 0 {
		sr.stSlab = make([]sessionState, 256)
	}
	st := &sr.stSlab[0]
	sr.stSlab = sr.stSlab[1:]
	*st = sessionState{id: id, arrival: now, idx: -1}
	if len(sr.doneSlab) < sr.stages {
		sr.doneSlab = make([]bool, 256*sr.stages)
	}
	st.done = sr.doneSlab[:sr.stages:sr.stages]
	sr.doneSlab = sr.doneSlab[sr.stages:]
	nq := sr.stages - 1
	if len(sr.qSlab) < nq {
		sr.qSlab = make([]*realrate.Queue, 256*nq)
	}
	st.queues = sr.qSlab[:nq:nq]
	sr.qSlab = sr.qSlab[nq:]
	if len(sr.thSlab) < sr.stages {
		sr.thSlab = make([]*realrate.Thread, 256*sr.stages)
	}
	st.threads = sr.thSlab[:0:sr.stages]
	sr.thSlab = sr.thSlab[sr.stages:]
	if sr.stages > 2 {
		if len(sr.midSlab) < sr.stages-2 {
			sr.midSlab = make([]midState, 256*(sr.stages-2))
		}
		st.mids = sr.midSlab[: sr.stages-2 : sr.stages-2]
		sr.midSlab = sr.midSlab[sr.stages-2:]
	}
	slot := sr.slots
	sr.slots++
	for i := range st.queues {
		st.queues[i] = sr.r.sys.NewQueue(sr.queueName(slot, i), sr.chunk*2)
		sr.r.chk.watchQueue(st.queues[i])
	}
	st.srcLink = realrate.ProducerOf(st.queues[0])
	return st
}

// queueName builds "sessp<slot>.q<i>" through a reused scratch buffer —
// one string allocation per fresh queue, versus fmt.Sprintf's three.
func (sr *sessionRun) queueName(slot, i int) string {
	b := append(sr.nameBuf[:0], "sessp"...)
	b = strconv.AppendInt(b, int64(slot), 10)
	b = append(b, ".q"...)
	b = strconv.AppendInt(b, int64(i), 10)
	sr.nameBuf = b
	return string(b)
}

// releaseState scrubs thread references and banks the state for reuse.
// Queues are recycled lazily at the next acquire, not here: release runs
// inside the kernel's exit path, and deferring the reset keeps that path
// read-only on queue state.
func (sr *sessionRun) releaseState(st *sessionState) {
	for i := range st.threads {
		st.threads[i] = nil
	}
	st.threads = st.threads[:0]
	st.freeNext = sr.freeSess
	sr.freeSess = st
}

// recycleSession retires a terminal session's state once its last thread
// has exited: swap-removed from the live list and returned to the pool.
func (sr *sessionRun) recycleSession(st *sessionState) {
	if st.idx >= 0 {
		last := len(sr.sess) - 1
		sr.sess[st.idx] = sr.sess[last]
		sr.sess[st.idx].idx = st.idx
		sr.sess[last] = nil
		sr.sess = sr.sess[:last]
		st.idx = -1
	}
	sr.releaseState(st)
}

// srcState, midState, and sinkState are a session's stage programs,
// embedded in the pooled session state and stepping through a reusable
// Ops buffer, so a recycled session admits with zero program or op-box
// allocations.
//
// srcState is the ingest stage: per chunk, one compute burst then one
// enqueue; marks its stage done and exits after the full payload.
type srcState struct {
	sr      *sessionRun
	st      *sessionState
	out     *realrate.Queue
	sent    int64
	compute bool
	ops     realrate.Ops
}

func (p *srcState) Next(th *realrate.Thread, now time.Duration) realrate.Action {
	if p.sent >= p.sr.chunks {
		p.st.done[0] = true
		return realrate.Exit()
	}
	if p.compute {
		p.compute = false
		return p.ops.Compute(p.sr.work)
	}
	p.compute = true
	p.sent++
	return p.ops.Produce(p.out, p.sr.chunk)
}

// midState is a transform stage: consume a chunk, process it, forward
// it.
type midState struct {
	sr      *sessionRun
	st      *sessionState
	stage   int
	in, out *realrate.Queue
	moved   int64
	phase   int
	ops     realrate.Ops
}

func (p *midState) Next(th *realrate.Thread, now time.Duration) realrate.Action {
	switch p.phase {
	case 0:
		if p.moved >= p.sr.chunks {
			p.st.done[p.stage] = true
			return realrate.Exit()
		}
		p.phase = 1
		return p.ops.Consume(p.in, p.sr.chunk)
	case 1:
		p.phase = 2
		return p.ops.Compute(p.sr.work)
	default:
		p.phase = 0
		p.moved++
		return p.ops.Produce(p.out, p.sr.chunk)
	}
}

// sinkState is the delivery stage: once the full payload has been
// consumed and processed, the session is complete and its end-to-end
// latency is recorded.
type sinkState struct {
	sr      *sessionRun
	st      *sessionState
	kind    string
	in      *realrate.Queue
	got     int64
	consume bool
	ops     realrate.Ops
}

func (p *sinkState) Next(th *realrate.Thread, now time.Duration) realrate.Action {
	if p.got >= p.sr.chunks {
		p.st.done[len(p.st.done)-1] = true
		p.sr.complete(p.st, p.kind, now)
		return realrate.Exit()
	}
	if p.consume {
		p.consume = false
		return p.ops.Consume(p.in, p.sr.chunk)
	}
	p.consume = true
	p.got++
	return p.ops.Compute(p.sr.work)
}

// complete closes one session: attainment bookkeeping, the SLO report's
// session sample, and the drained-pipeline oracle (every inter-stage
// queue conserved the exact payload — the stage-ordering invariant in
// its strongest per-session form).
func (sr *sessionRun) complete(st *sessionState, kind string, now time.Duration) {
	if st.completed || st.dead {
		return
	}
	st.completed = true
	sr.completed++
	sr.live--
	lat := now - st.arrival
	if lat <= sr.deadline {
		sr.met++
	}
	sr.r.sys.ObserveSessionLatency(kind, lat)
	for i, q := range st.queues {
		if q.Produced() != sr.payload() || q.Consumed() != sr.payload() || q.Fill() != 0 {
			sr.violate("session-stage-order", now,
				"completed session %d queue %d: produced %d, consumed %d, fill %d (payload %d)",
				st.id, i, q.Produced(), q.Consumed(), q.Fill(), sr.payload())
		}
	}
}

// killSession marks a session dead and cascade-kills its surviving
// stages. The kills are deferred through a zero-delay timer: OnExit
// fires from inside the kernel's retirement path, where a re-entrant
// Kill is not safe.
func (sr *sessionRun) killSession(st *sessionState, exiting *realrate.Thread) {
	if st.completed || st.dead {
		return
	}
	st.dead = true
	sr.dead++
	sr.live--
	for _, other := range st.threads {
		if other == exiting {
			continue
		}
		o := other
		sr.r.sys.After(0, func(now time.Duration) {
			if o.State() != "exited" {
				o.Kill()
			}
		})
	}
}

// OnExit implements realrate.Observer: a stage exiting without having
// marked itself done was shed or killed mid-payload, which kills the
// whole session — a half-delivered stream is dead, not degraded — and
// releases its surviving stages, so no thread wedges forever on a queue
// that will never fill or drain again.
func (sr *sessionRun) OnExit(now time.Duration, th *realrate.Thread) {
	ref, ok := sr.byTh[th]
	if !ok {
		return
	}
	delete(sr.byTh, th)
	if !ref.st.done[ref.stage] {
		sr.killSession(ref.st, th) // involuntary: shed or killed mid-payload
	}
	ref.st.alive--
	if ref.st.alive == 0 && (ref.st.completed || ref.st.dead) {
		// Last thread of a terminal session: the pipeline can never be
		// touched again, so its state returns to the pool.
		sr.recycleSession(ref.st)
	}
}

// violate records one session-oracle breach, capped like the checker's.
func (sr *sessionRun) violate(invariant string, now time.Duration, format string, args ...any) {
	if len(sr.violations) >= maxViolations {
		return
	}
	sr.violations = append(sr.violations, Violation{
		Invariant: invariant,
		Policy:    sr.r.policy,
		Time:      now,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// finish runs the end-of-run session oracles against the run's SLO
// report (System.SLO, read once by the caller).
func (sr *sessionRun) finish(sys *realrate.System, rep *realrate.SLOReport) {
	end := sys.Now()

	// Session conservation: every arrival is in exactly one bucket.
	if sr.started != sr.refused+sr.completed+sr.dead+sr.live {
		sr.violate("session-conservation", end,
			"started %d != refused %d + completed %d + dead %d + live %d",
			sr.started, sr.refused, sr.completed, sr.dead, sr.live)
	}
	if sr.live < 0 || sr.peakLive < sr.live {
		sr.violate("session-conservation", end,
			"live %d outside [0, peak %d]", sr.live, sr.peakLive)
	}

	// Stage ordering for sessions still in flight: stage j can never
	// have forwarded more bytes than stage j-1 released to it.
	for _, st := range sr.sess {
		if st.dead {
			continue
		}
		for j := 1; j < len(st.queues); j++ {
			if st.queues[j].Produced() > st.queues[j-1].Consumed() {
				sr.violate("session-stage-order", end,
					"session %d: stage %d produced %d bytes but stage %d only released %d",
					st.id, j+1, st.queues[j].Produced(), j, st.queues[j-1].Consumed())
			}
		}
	}

	// SLO-report closure: exactly one end-to-end sample per completed
	// session — refused, dead, and still-live sessions contribute none
	// (their edges are open or void, not missed) — the per-kind series
	// partition the total, and the tracker's exact attainment counter
	// agrees with the runner's met count.
	if rep.Session.Samples != uint64(sr.completed) {
		sr.violate("session-slo-closure", end,
			"SLO report holds %d session samples, %d sessions completed",
			rep.Session.Samples, sr.completed)
	}
	var byKind uint64
	for _, st := range rep.Sessions {
		byKind += st.Samples
	}
	if byKind != rep.Session.Samples {
		sr.violate("session-slo-closure", end,
			"per-kind session samples sum to %d, total dimension has %d",
			byKind, rep.Session.Samples)
	}
	if sr.completed > 0 {
		want := float64(sr.met) / float64(sr.completed)
		if diff := rep.Session.Attainment - want; diff < -1e-9 || diff > 1e-9 {
			sr.violate("session-slo-closure", end,
				"SLO report attainment %.6f, runner counted %d/%d met",
				rep.Session.Attainment, sr.met, sr.completed)
		}
	}
}

// report snapshots the run's session outcome.
func (sr *sessionRun) report() SessionReport {
	rep := SessionReport{
		Started:   sr.started,
		Refused:   sr.refused,
		Completed: sr.completed,
		Dead:      sr.dead,
		Live:      sr.live,
		Met:       sr.met,
		PeakLive:  sr.peakLive,
	}
	if sr.completed > 0 {
		rep.Attainment = float64(rep.Met) / float64(rep.Completed)
	}
	if sr.started > 0 {
		rep.Goodput = float64(rep.Met) / float64(rep.Started)
	}
	return rep
}
