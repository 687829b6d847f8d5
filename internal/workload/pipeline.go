package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Producer loops for a fixed number of cycles and then enqueues a block of
// data whose size follows the (possibly time-varying) production rate —
// exactly the pulse program of §4.2: "Both the producer and consumer loop
// for some number of cycles before they enqueue or dequeue a block of data.
// We fix the allocation (cycles/sec) given to the producer ... and control
// the rate at which it produces data (bytes/cycle)."
type Producer struct {
	Queue *kernel.Queue
	// CyclesPerBlock is the loop length between enqueues.
	CyclesPerBlock sim.Cycles
	// Rate is the production rate in bytes per kilocycle.
	Rate RateFunc

	computing bool
	blocks    int64
}

// Next implements kernel.Program.
func (p *Producer) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	p.computing = !p.computing
	if p.computing {
		return kernel.Compute(p.CyclesPerBlock)
	}
	bytes := int64(p.Rate(now) * float64(p.CyclesPerBlock) / 1000)
	if bytes < 1 {
		bytes = 1
	}
	if bytes > p.Queue.Size() {
		bytes = p.Queue.Size()
	}
	p.blocks++
	return kernel.Produce(p.Queue, bytes)
}

// Blocks returns the number of blocks enqueued so far.
func (p *Producer) Blocks() int64 { return p.blocks }

// Consumer dequeues fixed-size blocks and burns a fixed number of cycles
// per byte — the fixed consumption rate of §4.2 whose allocation the
// controller must discover.
type Consumer struct {
	Queue *kernel.Queue
	// BlockBytes is the dequeue unit.
	BlockBytes int64
	// CyclesPerByte is the processing cost (the inverse of the consumption
	// rate in bytes/cycle).
	CyclesPerByte float64

	computing bool
	blocks    int64
}

// Next implements kernel.Program.
func (c *Consumer) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	c.computing = !c.computing
	if !c.computing {
		return kernel.Consume(c.Queue, c.BlockBytes)
	}
	c.blocks++
	cycles := sim.Cycles(c.CyclesPerByte * float64(c.BlockBytes))
	if cycles < 1 {
		cycles = 1
	}
	return kernel.Compute(cycles)
}

// Blocks returns the number of blocks dequeued so far.
func (c *Consumer) Blocks() int64 { return c.blocks }

// Stage is one step of a processing pipeline: consume a block from In,
// burn CyclesPerByte per byte, produce the block into Out. In/Out may be
// nil for the first/last stage, in which case the stage synthesizes or
// discards data at the given rate.
type Stage struct {
	In, Out       *kernel.Queue
	BlockBytes    int64
	CyclesPerByte float64

	phase  int
	blocks int64
}

// Next implements kernel.Program.
func (s *Stage) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	s.phase++
	switch s.phase % 3 {
	case 1:
		if s.In == nil {
			s.phase++ // skip the consume leg
			break
		}
		return kernel.Consume(s.In, s.BlockBytes)
	case 2:
		break
	default:
		if s.Out == nil {
			return kernel.Compute(1) // nothing to emit; keep looping
		}
		s.blocks++
		return kernel.Produce(s.Out, s.BlockBytes)
	}
	cycles := sim.Cycles(s.CyclesPerByte * float64(s.BlockBytes))
	if cycles < 1 {
		cycles = 1
	}
	return kernel.Compute(cycles)
}

// Blocks returns the number of blocks this stage has emitted.
func (s *Stage) Blocks() int64 { return s.blocks }

// Hog computes forever in fixed bursts: the "miscellaneous job (no
// progress-metric) that tries to consume as much CPU as it can" of §4.2.
type Hog struct {
	Burst sim.Cycles
	done  sim.Cycles
}

// Next implements kernel.Program.
func (h *Hog) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	b := h.Burst
	if b <= 0 {
		b = 100_000
	}
	h.done += b
	return kernel.Compute(b)
}

// Work returns the total cycles requested so far.
func (h *Hog) Work() sim.Cycles { return h.done }
