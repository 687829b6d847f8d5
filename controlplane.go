package realrate

import "repro/internal/ctlplane"

// ControllerMode selects how the feedback controller samples jobs.
type ControllerMode int

const (
	// ControllerPeriodic is the paper's sweep: every job sampled every
	// control interval. The default.
	ControllerPeriodic ControllerMode = iota
	// ControllerEventDriven samples a job only when its progress signal
	// moved past a threshold since the last sample, or when the staleness
	// bound elapsed. Idle jobs cost almost nothing.
	ControllerEventDriven
)

func (m ControllerMode) String() string {
	if m == ControllerEventDriven {
		return "event"
	}
	return "periodic"
}

// CtlPlaneConfig configures the control plane (internal/ctlplane), which
// alone drives the feedback controller. The zero value is one periodic
// shard: the paper's single controller thread sweeping every job each
// interval. Shards and event-driven sampling scale it to very many jobs.
type CtlPlaneConfig struct {
	// Mode selects periodic or event-driven sampling.
	Mode ControllerMode
	// Shards splits the controller across this many staggered shard
	// threads, each owning the jobs resident on its CPU (thread-hashed on
	// a uniprocessor). 0 means 1.
	Shards int
}

// ControllerModeName returns the active sampling mode: "periodic",
// "event", or "none" under a baseline policy with no controller.
func (s *System) ControllerModeName() string {
	if s.plane == nil {
		return "none"
	}
	return s.plane.Mode().String()
}

// ControlShards returns the shard count of the control plane, 0 under
// baseline policies.
func (s *System) ControlShards() int {
	if s.plane == nil {
		return 0
	}
	return s.plane.Shards()
}

// ShardStat is one control-plane shard's counters.
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Ticks counts the shard's completed control ticks.
	Ticks uint64
	// Sampled and Skipped count job visits that did and did not re-sample
	// (periodic shards sample everything: Skipped is 0).
	Sampled uint64
	Skipped uint64
	// Handoffs counts jobs re-homed to another shard after migrating.
	Handoffs uint64
	// LateTicks counts ticks, other than the shard's first, that did not
	// run in the control epoch after the shard's previous tick: the plane
	// fell behind its interval, and its staleness bound may not hold.
	LateTicks uint64
	// LastSampled and LastSkipped are the most recent tick's work counts.
	LastSampled int
	LastSkipped int
}

// ShardStats returns per-shard control-plane counters; under baseline
// policies it returns nil.
func (s *System) ShardStats() []ShardStat {
	if s.plane == nil {
		return nil
	}
	stats := s.plane.Stats()
	out := make([]ShardStat, len(stats))
	for i, st := range stats {
		out[i] = ShardStat{
			Shard: st.Shard, Ticks: st.Ticks, Sampled: st.Sampled, Skipped: st.Skipped,
			Handoffs: st.Handoffs, LateTicks: st.LateTicks, LastSampled: st.LastSampled, LastSkipped: st.LastSkipped,
		}
	}
	return out
}

// buildPlane constructs the internal control plane.
func buildPlane(s *System, cfg CtlPlaneConfig) *ctlplane.Plane {
	mode := ctlplane.Periodic
	if cfg.Mode == ControllerEventDriven {
		mode = ctlplane.EventDriven
	}
	return ctlplane.New(s.ctl, s.kern, s.rbs, s.reg, ctlplane.Config{Mode: mode, Shards: cfg.Shards})
}
