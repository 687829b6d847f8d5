package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// PathfinderConfig sizes the Mars Pathfinder scenario of §2: a high-
// priority bus-management task sharing a mutex with a low-priority
// meteorological task, while a medium-priority communications task starves
// the low task — the priority inversion that repeatedly reset the real
// spacecraft.
type PathfinderConfig struct {
	// BusPeriod is the bus task's activation period.
	BusPeriod sim.Duration
	// BusWork is the bus task's critical-section work.
	BusWork sim.Cycles
	// WeatherHold is the low task's critical-section work (the mutex hold
	// that gets stretched by starvation).
	WeatherHold sim.Cycles
	// WeatherGap is the low task's sleep between acquisitions.
	WeatherGap sim.Duration
	// CommsBurst and CommsGap shape the medium task: long CPU bursts with
	// tiny gaps, keeping it almost always runnable.
	CommsBurst sim.Cycles
	CommsGap   sim.Duration
	// Deadline is the watchdog's reset threshold on bus-task completion
	// gaps.
	Deadline sim.Duration
}

// DefaultPathfinderConfig mirrors the published account: a 125 ms bus
// cycle, a watchdog that resets when a full cycle is missed, and a
// communications load heavy enough to starve the low task for hundreds of
// milliseconds. (Cycle counts assume the 400 MHz simulated CPU.)
func DefaultPathfinderConfig() PathfinderConfig {
	// Under strict priorities the low task progresses only in the medium
	// task's 1 ms gaps: its 5 ms critical section stretches to ≈5 × 101 ms
	// of wall time, far past the 250 ms watchdog deadline while the bus
	// task waits on the mutex. Under real-rate scheduling the low task
	// holds a fair share and releases within tens of milliseconds.
	return PathfinderConfig{
		BusPeriod:   125 * sim.Millisecond,
		BusWork:     400_000,   // 1 ms
		WeatherHold: 2_000_000, // 5 ms inside the mutex
		WeatherGap:  5 * sim.Millisecond,
		CommsBurst:  40_000_000, // 100 ms bursts
		CommsGap:    sim.Millisecond,
		Deadline:    250 * sim.Millisecond,
	}
}

// Pathfinder is the instantiated scenario.
type Pathfinder struct {
	cfg   PathfinderConfig
	Mutex *kernel.Mutex

	Bus      *kernel.Thread
	Comms    *kernel.Thread
	Weather  *kernel.Thread
	Watchdog *kernel.Thread

	busDone        int64
	lastCompletion sim.Time
	resets         int
	resetTimes     []sim.Time
	weatherLoops   int64
}

// NewPathfinder spawns the three tasks plus a watchdog on the given
// machine. Priority (or reservation) assignment is the caller's choice —
// that is the experiment.
func NewPathfinder(k *kernel.Kernel, cfg PathfinderConfig) *Pathfinder {
	p := &Pathfinder{cfg: cfg, Mutex: kernel.NewMutex("info_bus")}

	// Bus management: lock, work, unlock, complete, sleep to next period.
	busPhase := 0
	var periodStart sim.Time
	p.Bus = k.Spawn("bus_mgmt", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		busPhase++
		switch busPhase % 4 {
		case 1:
			periodStart = now
			return kernel.Lock(p.Mutex)
		case 2:
			return kernel.Compute(cfg.BusWork)
		case 3:
			return kernel.Unlock(p.Mutex)
		default:
			p.busDone++
			p.lastCompletion = now
			return kernel.SleepUntil(periodStart.Add(cfg.BusPeriod))
		}
	}))

	// Communications: long bursts, almost always runnable.
	commsPhase := 0
	p.Comms = k.Spawn("comms", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		commsPhase++
		if commsPhase%2 == 1 {
			return kernel.Compute(cfg.CommsBurst)
		}
		return kernel.Sleep(cfg.CommsGap)
	}))

	// Meteorological data gathering: holds the shared mutex for real work.
	weatherPhase := 0
	p.Weather = k.Spawn("weather", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		weatherPhase++
		switch weatherPhase % 4 {
		case 1:
			return kernel.Lock(p.Mutex)
		case 2:
			return kernel.Compute(cfg.WeatherHold)
		case 3:
			return kernel.Unlock(p.Mutex)
		default:
			p.weatherLoops++
			return kernel.Sleep(cfg.WeatherGap)
		}
	}))

	// Watchdog: observes bus completions; a gap beyond the deadline is a
	// spacecraft reset.
	wdPhase := 0
	p.Watchdog = k.Spawn("watchdog", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		wdPhase++
		if wdPhase%2 == 1 {
			return kernel.Sleep(cfg.Deadline / 4)
		}
		last := p.lastCompletion
		if now.Sub(last) > cfg.Deadline {
			p.resets++
			p.resetTimes = append(p.resetTimes, now)
			p.lastCompletion = now // reset clears the watchdog
		}
		return kernel.Compute(10_000)
	}))
	return p
}

// Resets returns the number of watchdog resets observed.
func (p *Pathfinder) Resets() int { return p.resets }

// ResetTimes returns when each reset occurred.
func (p *Pathfinder) ResetTimes() []sim.Time { return p.resetTimes }

// BusCompletions returns how many bus cycles completed.
func (p *Pathfinder) BusCompletions() int64 { return p.busDone }

// WeatherLoops returns how many times the low task completed its section.
func (p *Pathfinder) WeatherLoops() int64 { return p.weatherLoops }

// SpinWait is the livelock scenario of §2: a thread at fixed real-time
// priority spins waiting for input that a lower-priority server (the X
// server in the paper) must produce; under strict priorities the server
// never runs and the system livelocks.
type SpinWait struct {
	Spinner *kernel.Thread
	Server  *kernel.Thread

	inputReady bool
	delivered  int64
	consumed   int64
}

// NewSpinWait spawns the spinner and the input-producing server.
// spinBurst is the spinner's polling loop cost; serverWork is the cycles
// the server needs to produce one input.
func NewSpinWait(k *kernel.Kernel, spinBurst, serverWork sim.Cycles) *SpinWait {
	s := &SpinWait{}
	s.Spinner = k.Spawn("rt_spinner", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		if s.inputReady {
			s.inputReady = false
			s.consumed++
		}
		return kernel.Compute(spinBurst)
	}))
	serverPhase := 0
	s.Server = k.Spawn("x_server", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		serverPhase++
		if serverPhase%2 == 1 {
			return kernel.Compute(serverWork)
		}
		s.inputReady = true
		s.delivered++
		return kernel.Sleep(sim.Millisecond)
	}))
	return s
}

// Delivered returns how many inputs the server produced.
func (s *SpinWait) Delivered() int64 { return s.delivered }

// Consumed returns how many inputs the spinner observed.
func (s *SpinWait) Consumed() int64 { return s.consumed }
