package realrate

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// Policy is a pluggable scheduling discipline for a System — the seam the
// paper's comparative claims rest on: the same machine, workload, and
// symbiotic interfaces can run under the feedback-driven reservation
// scheduler or under any of the classical baselines it is measured
// against.
//
// The interface is exactly the kernel scheduler contract, so every
// scheduler in this module (the reservation dispatcher and the four
// baselines) satisfies it as-is. Construct policies with RBS (the paper's
// scheduler, and the default), Stride, Lottery, Linux, or RoundRobin, and
// select one via Config.Policy. A Policy instance drives exactly one
// System; do not share one between systems.
//
// Only RBS carries the feedback controller: under a baseline policy the
// System has no proportion allocator, the Figure 2 taxonomy options
// (Reserve, RealRate, …) degrade to share hints where the policy can
// express them (see Spawn), and quality events are never raised. A
// thread's baseline share is set only through the Tickets and Nice spawn
// options.
type Policy interface {
	kernel.Policy
}

// kernelPolicyHolder lets NewSystem unwrap a public wrapper to the raw
// internal policy, keeping the kernel's Pick/Charge/Tick hot path free of
// wrapper indirection.
type kernelPolicyHolder interface {
	kernelPolicy() kernel.Policy
}

// RBSPolicy is the paper's reservation-based scheduler: proportion/period
// reservations dispatched earliest-deadline-first with budget enforcement,
// actuated by the feedback controller.
type RBSPolicy struct {
	*rbs.Policy
}

// RBS returns the reservation-based scheduler of the paper. Selecting it
// (or leaving Config.Policy nil) gives the System the full feedback stack:
// progress registry, proportion/period controller, admission control, and
// quality exceptions.
func RBS() *RBSPolicy { return &RBSPolicy{Policy: rbs.New()} }

func (p *RBSPolicy) kernelPolicy() kernel.Policy { return p.Policy }

// StridePolicy is the stride-scheduling baseline: deterministic
// proportional share via per-thread pass values.
type StridePolicy struct {
	*baseline.Stride
}

// Stride returns a stride-scheduling policy with the given quantum
// (non-positive defaults to 10ms).
func Stride(quantum time.Duration) *StridePolicy {
	return &StridePolicy{Stride: baseline.NewStride(sim.FromStd(quantum))}
}

func (p *StridePolicy) kernelPolicy() kernel.Policy { return p.Stride }

// LotteryPolicy is the lottery-scheduling baseline: randomized proportional
// share, the probabilistic twin of stride.
type LotteryPolicy struct {
	*baseline.Lottery
}

// Lottery returns a lottery-scheduling policy with the given quantum
// (non-positive defaults to 10ms) and PRNG seed.
func Lottery(quantum time.Duration, seed uint64) *LotteryPolicy {
	return &LotteryPolicy{Lottery: baseline.NewLottery(sim.FromStd(quantum), seed)}
}

func (p *LotteryPolicy) kernelPolicy() kernel.Policy { return p.Lottery }

// LinuxPolicy is the Linux 2.0.35 goodness scheduler the paper's prototype
// replaced: multilevel-feedback counter decay, nice values, and a fixed
// real-time (SCHED_FIFO) class above the time-sharing class.
type LinuxPolicy struct {
	*baseline.Linux
}

// Linux returns the Linux 2.0-style goodness policy.
func Linux() *LinuxPolicy {
	return &LinuxPolicy{Linux: baseline.NewLinux()}
}

func (p *LinuxPolicy) kernelPolicy() kernel.Policy { return p.Linux }

// RoundRobinPolicy is the neutral comparator: equal fixed quanta in FIFO
// order, no information used at all.
type RoundRobinPolicy struct {
	*baseline.RoundRobin
}

// RoundRobin returns a round-robin policy with the given quantum
// (non-positive defaults to 10ms).
func RoundRobin(quantum time.Duration) *RoundRobinPolicy {
	return &RoundRobinPolicy{RoundRobin: baseline.NewRoundRobin(sim.FromStd(quantum))}
}

func (p *RoundRobinPolicy) kernelPolicy() kernel.Policy { return p.RoundRobin }
