// Package experiments contains one harness per figure in the paper's
// evaluation (Figures 5–8) plus the §2 motivation scenarios (Mars
// Pathfinder priority inversion and the spin-wait livelock). Each harness
// builds a fresh simulated machine, runs the paper's workload, and returns
// a result that prints the same rows/series the paper reports and can be
// dumped as CSV for plotting.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// rig is one simulated machine with the full real-rate stack.
type rig struct {
	eng    *sim.Engine
	kern   *kernel.Kernel
	policy *rbs.Policy
	reg    *progress.Registry
	ctl    *core.Controller
	// plane drives ctl once start has run; nil before.
	plane *ctlplane.Plane
}

// newRig builds a machine with the paper's default calibration, applying
// optional tweaks to the kernel and controller configs before construction.
func newRig(kmod func(*kernel.Config), cmod func(*core.Config)) *rig {
	kcfg := kernel.DefaultConfig()
	if kmod != nil {
		kmod(&kcfg)
	}
	ccfg := core.Config{}
	if cmod != nil {
		cmod(&ccfg)
	}
	eng := sim.NewEngine()
	policy := rbs.New()
	kern := kernel.New(eng, kcfg, policy)
	reg := progress.NewRegistry()
	ctl := core.New(kern, policy, reg, ccfg)
	return &rig{eng: eng, kern: kern, policy: policy, reg: reg, ctl: ctl}
}

// start runs the machine with the controller driven by the default
// control plane: one periodic shard, the paper's controller thread.
func (r *rig) start() {
	r.plane = ctlplane.New(r.ctl, r.kern, r.policy, r.reg, ctlplane.Config{})
	r.plane.Start()
	r.kern.Start()
}

func (r *rig) startNoController() {
	r.kern.Start()
}

// sleepyProgram returns a controlled-but-idle dummy thread program.
func sleepyProgram() kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Sleep(50 * sim.Millisecond)
	})
}

// section prints a titled separator for experiment output.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
