package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// Grid sizes of the workloads. serial and world4 step the same 33x33
// problem so their final states can be compared byte for byte; the
// campaign uses the 17x17 grid its store round-trips are sized for.
const (
	stepN     = 33
	campaignN = 17
	// crossSteps is the step count at which serial and world4 states
	// are hashed and cross-checked against the other decomposition.
	crossSteps = 3
	// massTol bounds the relative drift of the total mass over a run.
	// The scheme conserves mass only up to the overset interpolation
	// error, a drift of order 1e-7 per step on these grids; the bound
	// sits far above what a run's few hundred steps accumulate and far
	// below what a blow-up produces.
	massTol = 1e-3
)

// points returns the number of grid points of an n x n Yin-Yang grid
// (both panels, Np = 3(n-1)+1).
func points(n int) int { return 2 * n * n * (3*(n-1) + 1) }

// icFor maps the workload seed to the initial conditions: the seed is
// the only thing it changes.
func icFor(seed uint64) *mhd.InitialConditions {
	ic := mhd.DefaultIC()
	ic.Seed = seed
	return &ic
}

// coreConfig is the solver configuration of an n x n workload.
func coreConfig(n int, seed uint64) core.Config {
	return core.Config{Nr: n, Nt: n, IC: icFor(seed)}.WithDefaults()
}

// stateHash is the sha256 of the solver's checkpoint bytes.
func stateHash(sv *mhd.Solver) ([32]byte, error) {
	h := sha256.New()
	if err := snapshot.WriteCheckpoint(h, sv); err != nil {
		return [32]byte{}, fmt.Errorf("hashing state: %w", err)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// checkDiag is the per-iteration output check: every global integral
// is finite and the mass has drifted less than massTol from mass0.
func checkDiag(d mhd.Diagnostics, mass0 float64) error {
	for _, v := range []float64{d.Mass, d.KineticE, d.MagneticE, d.InternalE, d.MaxV, d.MaxB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("step %d: non-finite diagnostics %v", d.Step, d)
		}
	}
	if drift := math.Abs(d.Mass-mass0) / mass0; drift > massTol {
		return fmt.Errorf("step %d: mass drift %.3g exceeds %.0e", d.Step, drift, massTol)
	}
	return nil
}

// Every loop forces a collection between iterations, untimed: the
// heap high-water then tracks live memory plus one iteration's
// allocations rather than the collector's pacing, and timed iterations
// rarely include a collection.

// freshHeap collects garbage and returns freed memory to the OS, so
// that repeated set-ups start from the same heap.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB is the process high-water resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// serialReference steps a fresh serial solver for the given seed and dt
// and returns the hash of its state after steps steps.
func serialReference(n int, seed uint64, dt float64, steps int) ([32]byte, error) {
	sim, err := core.New(coreConfig(n, seed))
	if err != nil {
		return [32]byte{}, err
	}
	defer sim.Close()
	for i := 0; i < steps; i++ {
		sim.Solver.Advance(dt)
	}
	return stateHash(sim.Solver)
}

// worldReference steps a fresh 4-rank world (one worker per rank) for
// the given seed and dt and returns the hash of the gathered state
// after steps steps.
func worldReference(n int, seed uint64, dt float64, steps int) ([32]byte, error) {
	cfg := coreConfig(n, seed)
	layout, err := decomp.NewLayout(cfg.Spec(), worldRanks)
	if err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	var herr error
	err = mpi.RunWith(worldRanks, mpi.RunConfig{Deadline: runDeadline}, func(w *mpi.Comm) {
		r, err := decomp.NewRankWorkers(w, layout, *cfg.Params, *cfg.IC, 1)
		if err != nil {
			w.Abort(err)
		}
		defer r.Close()
		for i := 0; i < steps; i++ {
			r.Advance(dt)
		}
		sv, err := r.GatherState()
		if err != nil {
			w.Abort(err)
		}
		if w.Rank() == 0 {
			sum, herr = stateHash(sv)
		}
	})
	if err != nil {
		return sum, err
	}
	return sum, herr
}

// sameHash reports a mismatch between two decompositions' states.
func sameHash(what string, got, want [32]byte) error {
	if got != want {
		return fmt.Errorf("%s: state sha256 %x differs from %x", what, got[:8], want[:8])
	}
	return nil
}
