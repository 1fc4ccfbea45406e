package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfcount"
)

// worldRanks is the world4 world size: two ranks per panel, the
// smallest world in which every halo, overset and collective path of
// the decomposed solver carries traffic.
const worldRanks = 4

// runDeadline bounds every blocking call of a benchmark world, so a
// hung exchange fails the run instead of stalling it.
const runDeadline = 2 * time.Minute

// worldPhase is what one world4 phase measured on rank 0.
type worldPhase struct {
	iters             []time.Duration
	setups            []time.Duration
	hashK             [32]byte
	dt                float64
	final             *mhd.Solver // gathered state after the last step
	steps             int
	tagMsgs, tagBytes int64 // exchange-tag traffic of the timed steps
}

// runWorldPhase builds the world reps times (timing each build up to a
// state ready to step) and steps the last one closed-loop for the
// budget. An iteration is one Advance on every rank closed by the
// Allreduce that decides whether to stop; it also carries the previous
// state's output check, which each rank computes untimed between
// iterations. rec, when set, traces the stepping ranks.
func runWorldPhase(seed uint64, budget time.Duration, reps int, rec *obs.Recorder, t *tally) (*worldPhase, error) {
	cfg := coreConfig(stepN, seed)
	layout, err := decomp.NewLayout(cfg.Spec(), worldRanks)
	if err != nil {
		return nil, err
	}
	ph := &worldPhase{}
	for rep := 0; rep < reps; rep++ {
		last := rep == reps-1
		freshHeap()
		t0 := time.Now()
		err := mpi.RunWith(worldRanks, mpi.RunConfig{Obs: rec, Deadline: runDeadline}, func(w *mpi.Comm) {
			r, err := decomp.NewRankWorkers(w, layout, *cfg.Params, *cfg.IC, 1)
			if err != nil {
				w.Abort(err)
			}
			defer r.Close()
			dt := r.EstimateDT(cfg.SafetyFactor)
			if w.Rank() == 0 {
				ph.setups = append(ph.setups, time.Since(t0))
				ph.dt = dt
			}
			if last {
				if err := ph.step(w, r, dt, budget, rec, t); err != nil {
					w.Abort(err)
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// localCheck is one rank's share of the output check: its ownership-
// weighted mass and whether any of its integrals went non-finite.
func localCheck(r *decomp.Rank) (mass, bad float64) {
	mhd.ComputeVTB(r.PL, &r.PL.U)
	d := mhd.PanelDiagnostics(r.PL, r.Prm)
	for _, v := range []float64{d.Mass, d.KineticE, d.MagneticE, d.InternalE, d.MaxV, d.MaxB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = 1
		}
	}
	return d.Mass, bad
}

// checkWorld judges the reduced check of the state after step.
func checkWorld(step int, mass, bad, mass0 float64) error {
	if bad > 0 {
		return fmt.Errorf("step %d: non-finite integrals on %v rank(s)", step, bad)
	}
	return checkDiag(mhd.Diagnostics{Step: step, Mass: mass}, mass0)
}

// step runs on every rank: the timed closed loop, then the final checks.
func (ph *worldPhase) step(w *mpi.Comm, r *decomp.Rank, dt float64, budget time.Duration, rec *obs.Recorder, t *tally) error {
	root := w.Rank() == 0
	rr := rec.RankFor(w.Rank())
	m, bad := localCheck(r)
	carry := []float64{0, m, bad}
	w.Allreduce(carry, mpi.OpSum)
	mass0 := carry[1]
	if carry[2] > 0 {
		return fmt.Errorf("initial state is not finite")
	}
	var startMsgs, startBytes int64
	if root {
		startMsgs, startBytes = exchangeTraffic(rec)
	}
	// Every rank waits here until rank 0 has read the traffic counters,
	// so no step message of the loop is counted as set-up traffic.
	w.Allreduce([]float64{0}, mpi.OpSum)
	r.SetObs(rr)
	rr.Open()
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		r.Advance(dt)
		vals := []float64{0, carry[1], carry[2]}
		if root && time.Since(start) >= budget && r.StepN >= crossSteps {
			vals[0] = 1
		}
		c := rr.Begin(obs.SpanCollective)
		w.Allreduce(vals, mpi.OpSum)
		c.End()
		if root {
			ph.iters = append(ph.iters, time.Since(t0))
			if i > 0 {
				t.iter(checkWorld(r.StepN-1, vals[1], vals[2], mass0))
			}
		}
		if r.StepN == crossSteps {
			sv, err := r.GatherState()
			if err != nil {
				return err
			}
			if root {
				if ph.hashK, err = stateHash(sv); err != nil {
					return err
				}
			}
		}
		dg := rr.Begin(obs.SpanDiagnose)
		carry[1], carry[2] = localCheck(r)
		dg.End()
		if vals[0] > 0 {
			break
		}
		// Collect between iterations, then line the ranks up again so
		// no rank's next step waits out the collection.
		if root {
			runtime.GC()
		}
		w.Barrier()
	}
	vals := []float64{0, carry[1], carry[2]}
	w.Allreduce(vals, mpi.OpSum)
	rr.Close()
	r.SetObs(nil)
	if root {
		t.iter(checkWorld(r.StepN, vals[1], vals[2], mass0))
		ph.steps = len(ph.iters)
		endMsgs, endBytes := exchangeTraffic(rec)
		ph.tagMsgs, ph.tagBytes = endMsgs-startMsgs, endBytes-startBytes
	}
	sv, err := r.GatherState()
	if err != nil {
		return err
	}
	if root {
		t.final(sv.CheckFinite())
		ph.final = sv
	}
	return nil
}

// exchangeTraffic sums the recorder's delivered messages and bytes over
// the tags of the solver's halo, rim and overset exchanges.
func exchangeTraffic(rec *obs.Recorder) (msgs, bytes int64) {
	tags := map[int]bool{}
	for _, tag := range decomp.ExchangeTags() {
		tags[tag] = true
	}
	for k, st := range rec.TagStats() {
		if tags[k.Tag] {
			msgs += st.Msgs.Load()
			bytes += st.Bytes.Load()
		}
	}
	return msgs, bytes
}

func runWorld(o opts) (*outcome, error) {
	out := &outcome{pointsPerIter: float64(points(stepN))}
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	ph, err := runWorldPhase(o.seed, budget, setupReps, nil, &out.tally)
	if err != nil {
		return nil, err
	}
	out.iters, out.setups = ph.iters, ph.setups
	out.peakRSS = peakRSSMB()
	ref, err := serialReference(stepN, o.seed, ph.dt, crossSteps)
	if err != nil {
		return nil, err
	}
	out.tally.final(sameHash("world4 vs serial", ph.hashK, ref))
	if !o.trace {
		return out, nil
	}
	// Size every rank's span ring for the longest traced phase: at most
	// one step per 10 ms, under 128 spans per step (about 100 today).
	spanCap := int(budget/(10*time.Millisecond))*128 + 1024
	rec := obs.New(obs.Config{SpanCap: spanCap})
	tph, err := runWorldPhase(o.seed, budget, 1, rec, &out.tally)
	if err != nil {
		return nil, err
	}
	out.tally.final(sameHash("traced vs untraced", tph.hashK, ph.hashK))
	rep := rec.BuildReport(perfcount.Snapshot{})
	m := metrics{}
	tracedMS := median(sortedMS(tph.iters))
	unattributed := decompMetrics(m, rep, tph.steps)
	m.set("mpi.msgs_per_step", float64(tph.tagMsgs)/float64(tph.steps), "count")
	m.set("mpi.bytes_per_step", float64(tph.tagBytes)/float64(tph.steps), "B")
	m.set("step.unattributed_frac", unattributed, "frac")
	m.set("trace.overhead_frac", tracedMS/median(sortedMS(out.iters))-1, "frac")
	m.set("trace.spans_dropped", float64(rep.SpansDropped), "count")
	out.notes = append(out.notes, fmt.Sprintf("traced step p50 %.3f ms over %d steps; %d spans per rank per step",
		tracedMS, tph.steps, spansPerRank(rep)/tph.steps))
	zeroCampaign(m)
	m.set("telemetry.publish_ns", publishNS(&out.tally), "ns")
	if _, err := replayFinal(m, tph.final, tph.dt, &out.tally); err != nil {
		return nil, err
	}
	out.layers = m
	out.notMeasured = []string{"resilience, snapshot and store (no campaign)"}
	return out, nil
}

// spansPerRank is the mean number of spans each solver rank recorded.
func spansPerRank(rep *obs.Report) int {
	if len(rep.Ranks) == 0 {
		return 0
	}
	n := 0
	for _, s := range rep.Ranks {
		n += s.Spans
	}
	return n / len(rep.Ranks)
}
