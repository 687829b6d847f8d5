package realrate

import (
	"time"

	"repro/internal/progress"
	"repro/internal/sim"
)

// Pace is a pseudo-progress metric for applications with no natural
// bounded buffer — §4.5's suggestion that "a pure computation (finding
// digits of pi or cracking passwords) could use a metric such as the
// number of keys it has attempted." The application reports completed work
// units; a virtual buffer drains at the target rate, and the controller
// allocates exactly the CPU needed to hold that rate.
//
// Pace implements ProgressSource: create one with NewPace and attach it
// via the RealRate spawn option.
type Pace struct {
	sys   *System
	bound bool
	vq    *progress.VirtualQueue
}

// NewPace creates a work-unit pace: a virtual buffer of the given depth in
// work units (how much burstiness is tolerated before pressure saturates;
// a few seconds' worth of units works well) draining at targetPerSec. The
// thread must call Complete as it works.
func NewPace(name string, targetPerSec, depth float64) *Pace {
	return &Pace{vq: progress.NewVirtualQueue(name, depth, targetPerSec)}
}

// bind attaches the pace to the system whose clock it samples. A pace
// feeds exactly one thread: sharing the virtual buffer would double-count
// the target rate.
func (p *Pace) bind(s *System) {
	if p.bound {
		panic("realrate: Pace already attached to a thread")
	}
	p.bound = true
	p.sys = s
}

// Complete reports n finished work units. The pace must already be
// attached to a thread via the RealRate spawn option.
func (p *Pace) Complete(n float64) {
	if p.sys == nil {
		panic("realrate: Pace not attached; spawn a thread with RealRate(period, pace) first")
	}
	p.vq.Complete(p.sys.kern.Now(), n)
}

// FillLevel returns the virtual buffer's fill in [0,1]; 0.5 means the
// thread is exactly on rate.
func (p *Pace) FillLevel() float64 {
	if p.sys == nil {
		panic("realrate: Pace not attached; spawn a thread with RealRate(period, pace) first")
	}
	return p.vq.FillLevel(p.sys.kern.Now())
}

// Pressure implements ProgressSource.
func (p *Pace) Pressure(now time.Duration) float64 {
	return p.vq.Pressure(sim.Time(now))
}

// Describe implements ProgressSource.
func (p *Pace) Describe() string { return p.vq.Describe() }
