package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mhd"
	"repro/internal/obs"
	"repro/internal/overset"
	"repro/internal/perfcount"
	"repro/internal/snapshot"
)

// serialRun is one phase of the serial workload: a solver ready to
// step, its fixed dt and the mass it started with.
type serialRun struct {
	sim   *core.Simulation
	dt    float64
	mass0 float64
}

// newSerial builds the serial state ready to step: solver, overset
// plan, initial conditions and the one dt estimate of the run.
func newSerial(seed uint64, rec *obs.Recorder) (*serialRun, error) {
	cfg := coreConfig(stepN, seed)
	cfg.Obs = rec
	sim, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &serialRun{sim: sim, dt: sim.Solver.EstimateDT(cfg.SafetyFactor), mass0: sim.Diagnostics().Mass}, nil
}

// loop steps closed-loop until the budget is spent, timing each
// Advance and checking the state after it, untimed. With rr set every
// step is recorded as a span. It returns the timed steps and the state
// hash after crossSteps steps.
func (s *serialRun) loop(budget time.Duration, t *tally, rr *obs.RankRec) ([]time.Duration, [32]byte, error) {
	var iters []time.Duration
	var hashK [32]byte
	sv := s.sim.Solver
	rr.Open()
	defer rr.Close()
	start := time.Now()
	for sv.Step < crossSteps || time.Since(start) < budget {
		rr.SetStep(sv.Step)
		sp := rr.Begin(obs.SpanStep)
		t0 := time.Now()
		sv.Advance(s.dt)
		iters = append(iters, time.Since(t0))
		sp.End()
		dg := rr.Begin(obs.SpanDiagnose)
		t.iter(checkDiag(sv.Diagnose(), s.mass0))
		dg.End()
		runtime.GC()
		if sv.Step == crossSteps {
			h, err := stateHash(sv)
			if err != nil {
				return nil, hashK, err
			}
			hashK = h
		}
	}
	t.final(sv.CheckFinite())
	return iters, hashK, nil
}

func runSerial(o opts) (*outcome, error) {
	out := &outcome{pointsPerIter: float64(points(stepN))}
	var s *serialRun
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.sim.Close()
			s = nil
		}
		freshHeap()
		t0 := time.Now()
		var err error
		if s, err = newSerial(o.seed, nil); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	defer s.sim.Close()
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	iters, hashK, err := s.loop(budget, &out.tally, nil)
	if err != nil {
		return nil, err
	}
	out.iters = iters
	out.peakRSS = peakRSSMB()
	// The decomposed solver is bit-exact against the serial one: the
	// same seed and dt must reach the same state on four ranks.
	ref, err := worldReference(stepN, o.seed, s.dt, crossSteps)
	if err != nil {
		return nil, err
	}
	out.tally.final(sameHash("world4 vs serial", ref, hashK))
	if o.trace {
		if err := traceSerial(o, s, budget, hashK, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceSerial is the traced phase of the serial workload: a second
// solver from the same seed stepped with a span around every step, then
// the layer-by-layer replay of one more step of its final state.
func traceSerial(o opts, base *serialRun, budget time.Duration, hashK [32]byte, out *outcome) error {
	rec := obs.New(obs.Config{SpanCap: 1 << 12})
	s, err := newSerial(o.seed, rec)
	if err != nil {
		return err
	}
	defer s.sim.Close()
	if s.dt != base.dt {
		out.tally.final(fmt.Errorf("traced dt %v differs from untraced %v", s.dt, base.dt))
	}
	iters, tracedK, err := s.loop(budget, &out.tally, rec.RankFor(0))
	if err != nil {
		return err
	}
	out.tally.final(sameHash("traced vs untraced", tracedK, hashK))
	rep := rec.BuildReport(perfcount.Snapshot{})
	m := metrics{}
	stepMS := median(sortedMS(iters))
	layersMS, err := replayFinal(m, s.sim.Solver, s.dt, &out.tally)
	if err != nil {
		return err
	}
	m.set("step.unattributed_frac", unattributedFrac(stepMS, layersMS...), "frac")
	m.set("trace.overhead_frac", stepMS/median(sortedMS(out.iters))-1, "frac")
	m.set("trace.spans_dropped", float64(rep.SpansDropped), "count")
	out.notes = append(out.notes, fmt.Sprintf("traced step p50 %.3f ms over %d steps", stepMS, len(iters)))
	zeroDecomp(m)
	zeroCampaign(m)
	m.set("telemetry.publish_ns", publishNS(&out.tally), "ns")
	out.layers = m
	out.notMeasured = []string{"decomp/mpi halo, overset and collective phases (one process, no ranks)", "resilience, snapshot and store (no campaign)"}
	return nil
}

// throwawayCopy rebuilds the solver from its own checkpoint bytes: a
// bit-identical state in fresh memory that a replay may consume.
func throwawayCopy(sv *mhd.Solver) (*mhd.Solver, error) {
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, sv); err != nil {
		return nil, err
	}
	return snapshot.ReadCheckpoint(&buf)
}

// The replayed layers of one step, in report order.
var replayLayers = []string{"vtb", "curlj", "divv", "update", "rk", "constraints", "exchange"}

// layerTimes is one replayed step: per-layer wall time, perfcount
// deltas and computed bytes.
type layerTimes struct {
	ns    map[string]time.Duration
	perf  map[string]perfcount.Snapshot
	bytes map[string]int64
}

// replayStep advances sv by one step exactly as mhd.Solver.Advance
// does, one public call at a time, timing each call and taking a
// perfcount delta around it. The call counts follow mhd.SchemeStages;
// the overset exchange runs on ex, an exchanger built for the same
// spec, so the replayed step is bit-identical to the live one (the
// caller compares the hashes).
//
// Computed bytes count one read or write of every padded array a call
// touches (its compulsory traffic; cache misses are ignored). Walls
// touch the end nodes of every radial column of the 8 state fields, and
// the exchange reads 4 donor columns and writes 1 rim column per target,
// value and direction.
func replayStep(sv *mhd.Solver, ex *overset.Exchanger, dt float64) layerTimes {
	lt := layerTimes{ns: map[string]time.Duration{}, perf: map[string]perfcount.Snapshot{}, bytes: map[string]int64{}}
	p0 := sv.Panels[0].Patch
	field := int64(p0.Len()) * 8
	nrP, ntP, npP := p0.Padded()
	// Both panels: radial columns x 8 fields x 2 walls x read+write.
	wallBytes := 2 * int64(ntP*npP) * 8 * 2 * 2 * 8
	plan, _ := overset.PlanFor(sv.Spec)
	// Per target column: 8 fields x (4 donor reads + 1 write) x 2 directions.
	exBytes := int64(len(plan.Targets)*nrP) * 8 * 5 * 2 * 8
	timed := func(layer string, bytes int64, fn func()) {
		before := perfcount.Read()
		t0 := time.Now()
		fn()
		lt.ns[layer] += time.Since(t0)
		d := perfcount.Read().Sub(before)
		acc := lt.perf[layer]
		lt.perf[layer] = perfcount.Snapshot{
			Flops: acc.Flops + d.Flops, VectorLoops: acc.VectorLoops + d.VectorLoops,
			VectorElems: acc.VectorElems + d.VectorElems, ScalarOps: acc.ScalarOps + d.ScalarOps,
		}
		lt.bytes[layer] += bytes
	}
	constraints := func() {
		yin, yang := sv.Panels[0], sv.Panels[1]
		walls := func() {
			for _, pl := range sv.Panels {
				mhd.ApplyWallBC(pl, sv.Prm)
			}
		}
		timed("constraints", wallBytes, walls)
		timed("exchange", exBytes, func() {
			ex.ExchangeScalar(yin.U.Rho, yang.U.Rho)
			ex.ExchangeScalar(yin.U.P, yang.U.P)
			ex.ExchangeVector(yin.U.F, yang.U.F)
			ex.ExchangeVector(yin.U.A, yang.U.A)
		})
		timed("constraints", wallBytes, walls)
	}
	// Array sweeps of each call: one read or write of a padded field.
	stages, finalCoeff := mhd.SchemeStages(sv.Scheme)
	for _, pl := range sv.Panels {
		timed("rk", 16*field, pl.SaveU0)
		timed("rk", 16*field, pl.ZeroAcc)
	}
	for si, stg := range stages {
		for _, pl := range sv.Panels {
			pl := pl
			full := pl.Patch.OwnedRegion()
			timed("vtb", 15*field, func() { mhd.ComputeVTB(pl, &pl.U) })
			timed("curlj", 6*field, func() { mhd.RHSCurlJ(pl, full) })
			timed("divv", 4*field, func() { mhd.RHSDivV(pl, full) })
			timed("update", 27*field, func() { mhd.RHSUpdate(pl, sv.Prm, &pl.U, pl.K(), full) })
		}
		for _, pl := range sv.Panels {
			timed("rk", 24*field, func() { pl.AccumulateK(stg.AccCoeff) })
		}
		if si < len(stages)-1 {
			for _, pl := range sv.Panels {
				timed("rk", 40*field, func() { pl.RestoreU0PlusK(stg.StepCoeff * dt) })
			}
			constraints()
		}
	}
	for _, pl := range sv.Panels {
		timed("rk", 40*field, func() { pl.RestoreU0PlusAcc(finalCoeff * dt) })
	}
	constraints()
	sv.Time += dt
	sv.Step++
	return lt
}

// replayMetrics reports the replayed layers: the median time of each
// over the replays, the counts of one replayed step per grid point, and
// the kernel rates. It returns the per-layer medians in replayLayers
// order.
func replayMetrics(m metrics, replays []layerTimes, sv *mhd.Solver) []float64 {
	pts := float64(points(sv.Spec.Nr))
	var out []float64
	med := map[string]float64{}
	for _, l := range replayLayers {
		xs := make([]float64, len(replays))
		for i, r := range replays {
			xs[i] = float64(r.ns[l]) / 1e6
		}
		sort.Float64s(xs)
		med[l] = median(xs)
		out = append(out, med[l])
	}
	names := map[string]string{
		"vtb": "mhd.vtb_ms", "curlj": "mhd.curlj_ms", "divv": "mhd.divv_ms", "update": "mhd.update_ms",
		"rk": "mhd.rk_ms", "constraints": "mhd.constraints_ms", "exchange": "overset.exchange_ms",
	}
	for _, l := range replayLayers {
		m.set(names[l], med[l], "ms")
	}
	last := replays[len(replays)-1]
	var total perfcount.Snapshot
	var bytes int64
	for _, l := range replayLayers {
		p := last.perf[l]
		total.Flops += p.Flops
		total.VectorLoops += p.VectorLoops
		total.VectorElems += p.VectorElems
		bytes += last.bytes[l]
	}
	m.set("mhd.flops_per_point_step", float64(total.Flops)/pts, "flop")
	m.set("mhd.avg_vector_length", total.AverageVectorLength(), "elems")
	m.set("mhd.bytes_per_point_step", float64(bytes)/pts, "B-computed")
	mflops := func(ms float64, flops int64) float64 {
		if ms <= 0 {
			return 0
		}
		return float64(flops) / (ms / 1e3) / 1e6
	}
	m.set("mhd.vtb_mflops", mflops(med["vtb"], last.perf["vtb"].Flops), "Mflop/s")
	rhsFlops := last.perf["curlj"].Flops + last.perf["divv"].Flops + last.perf["update"].Flops
	m.set("mhd.rhs_mflops", mflops(med["curlj"]+med["divv"]+med["update"], rhsFlops), "Mflop/s")
	return out
}
