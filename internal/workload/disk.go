package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Disk models the I/O subsystem as a producer, per §3.2's I/O-intensive
// class: "Applications that process large data sets can be considered
// consumers of data that is produced by the I/O subsystem... Using informed
// prefetching interfaces such as TIP or Dynamic Sets... allows the system
// to monitor the rate of progress of the I/O subsystem as a producer/
// consumer for a particular job."
//
// The device transfers fixed-size blocks into a readahead buffer at a fixed
// throughput, using (almost) no CPU: each block is a DMA that takes
// BlockBytes/BytesPerSec of wall time, paced on an absolute schedule so
// scheduler jitter cannot slow the device down.
type Disk struct {
	Queue *kernel.Queue
	// BytesPerSec is the device throughput (e.g. ~20 MB/s for a fast 1998
	// SCSI disk).
	BytesPerSec int64
	// BlockBytes is the transfer unit (default 64 kB).
	BlockBytes int64

	phase  int
	nextAt sim.Time
	blocks int64
}

// Next implements kernel.Program.
func (d *Disk) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	block := d.BlockBytes
	if block <= 0 {
		block = 64 * 1024
	}
	if block > d.Queue.Size() {
		block = d.Queue.Size()
	}
	d.phase++
	if d.phase%2 == 1 {
		// Seek + transfer time for one block, on an absolute schedule.
		d.nextAt = d.nextAt.Add(sim.Duration(block * int64(sim.Second) / d.BytesPerSec))
		return kernel.SleepUntil(d.nextAt)
	}
	d.blocks++
	return kernel.Produce(d.Queue, block)
}

// Blocks returns the number of blocks transferred.
func (d *Disk) Blocks() int64 { return d.blocks }
