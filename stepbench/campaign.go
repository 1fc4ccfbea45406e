package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfcount"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/telemetry"
)

const (
	// campaignProcs is the world size of every campaign segment.
	campaignProcs = 2
	// segSteps is the length of one campaign segment, in steps.
	segSteps = 2
	// storeReplays is how many times each store call is replayed.
	storeReplays = 5
)

// campaignPhase is a campaign in a fresh store, resumed one segment per
// iteration.
type campaignPhase struct {
	cfg   resilience.Config
	st    *store.Store
	dt    float64
	mass0 float64
	last  *resilience.Result
	// firstHash is the state hash after the first timed segment, which
	// ends at the same step in every phase of a run.
	firstHash [32]byte
}

// newCampaign builds a campaign ready to resume: it opens a fresh store
// in dir, estimates the one dt of the run, and runs the first segment,
// which commits the origin and the first checkpoint.
func newCampaign(seed uint64, dir string, rec *obs.Recorder) (*campaignPhase, error) {
	be, err := store.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(be)
	if err != nil {
		return nil, err
	}
	ccfg := coreConfig(campaignN, seed)
	sim, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	dt := sim.Solver.EstimateDT(ccfg.SafetyFactor)
	mass0 := sim.Diagnostics().Mass
	sim.Close()
	c := &campaignPhase{
		cfg: resilience.Config{
			Core:            ccfg,
			NProcs:          campaignProcs,
			CheckpointEvery: segSteps,
			Store:           st,
			RunID:           fmt.Sprintf("bench-seed-%d", seed),
			Deadline:        runDeadline,
			Obs:             rec,
			Telemetry:       telemetry.New(telemetry.Config{}),
		},
		st: st, dt: dt, mass0: mass0,
	}
	if _, err := c.segment(); err != nil {
		return nil, err
	}
	return c, nil
}

// segment extends the campaign by one segment at the fixed dt and runs
// it: a resume from the store followed by a commit.
func (c *campaignPhase) segment() (*resilience.Result, error) {
	c.cfg.Steps += segSteps
	for len(c.cfg.DTSchedule) < c.cfg.Steps/segSteps {
		c.cfg.DTSchedule = append(c.cfg.DTSchedule, c.dt)
	}
	res, err := resilience.RunCampaign(c.cfg)
	if err != nil {
		return nil, err
	}
	c.last = res
	return res, nil
}

// checkSegment is the per-iteration output check of a resumed segment.
func (c *campaignPhase) checkSegment(res *resilience.Result) error {
	want := c.cfg.Steps
	switch {
	case !res.Resumed || res.StartStep != want-segSteps:
		return fmt.Errorf("segment to step %d did not resume from step %d (resumed=%v start=%d)", want, want-segSteps, res.Resumed, res.StartStep)
	case res.FinalStep != want || res.Retries != 0 || len(res.Diags) != 1:
		return fmt.Errorf("segment to step %d: final step %d, %d retries, %d commits", want, res.FinalStep, res.Retries, len(res.Diags))
	}
	return checkDiag(res.Diags[0], c.mass0)
}

// loop resumes one segment per iteration until the budget is spent.
func (c *campaignPhase) loop(budget time.Duration, t *tally) ([]time.Duration, error) {
	var iters []time.Duration
	start := time.Now()
	for len(iters) == 0 || time.Since(start) < budget {
		t0 := time.Now()
		res, err := c.segment()
		iters = append(iters, time.Since(t0))
		if err != nil {
			return nil, err
		}
		t.iter(c.checkSegment(res))
		runtime.GC()
		if len(iters) == 1 {
			if c.firstHash, err = stateHash(res.Final); err != nil {
				return nil, err
			}
		}
	}
	return iters, nil
}

// finalChecks verifies the store and compares the final state with one
// uninterrupted campaign of the same steps at the same dt.
func (c *campaignPhase) finalChecks(dir string, t *tally) ([32]byte, error) {
	vr, err := c.st.Verify()
	if err != nil {
		return [32]byte{}, err
	}
	if !vr.Clean() {
		t.final(fmt.Errorf("store verify: %s", vr))
	} else {
		t.final(nil)
	}
	got, err := stateHash(c.last.Final)
	if err != nil {
		return got, err
	}
	t.final(c.last.Final.CheckFinite())
	ref, err := resilience.RunCampaign(resilience.Config{
		Core:       c.cfg.Core,
		NProcs:     campaignProcs,
		Steps:      c.cfg.Steps,
		Dir:        dir,
		DTSchedule: []float64{c.dt},
		Deadline:   runDeadline,
	})
	if err != nil {
		return got, err
	}
	want, err := stateHash(ref.Final)
	if err != nil {
		return got, err
	}
	t.final(sameHash("segmented vs uninterrupted campaign", got, want))
	return got, nil
}

func runCampaign(o opts) (*outcome, error) {
	out := &outcome{pointsPerIter: float64(points(campaignN) * segSteps)}
	var c *campaignPhase
	for i := 0; i < setupReps; i++ {
		c = nil
		freshHeap()
		t0 := time.Now()
		var err error
		if c, err = newCampaign(o.seed, filepath.Join(o.workDir, fmt.Sprintf("store-%d", i)), nil); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	budget := o.budget
	if o.trace {
		budget /= 2
	}
	iters, err := c.loop(budget, &out.tally)
	if err != nil {
		return nil, err
	}
	out.iters = iters
	out.peakRSS = peakRSSMB()
	hash, err := c.finalChecks(filepath.Join(o.workDir, "uninterrupted"), &out.tally)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("campaign reached step %d in %d-step segments; final state sha256 %x", c.cfg.Steps, segSteps, hash[:8]))
	if o.trace {
		if err := traceCampaign(o, budget, c.firstHash, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceCampaign is the traced phase: the same campaign in a fresh store
// with the obs recorder attached, then replays of the store and
// telemetry calls and of one step's kernels.
func traceCampaign(o opts, budget time.Duration, untracedFirst [32]byte, out *outcome) error {
	// Size the span rings for the longest traced phase: at most one
	// segment per 50 ms, under 256 spans per rank per segment.
	rec := obs.New(obs.Config{SpanCap: int(budget/(50*time.Millisecond))*256 + 1024})
	c, err := newCampaign(o.seed, filepath.Join(o.workDir, "traced"), rec)
	if err != nil {
		return err
	}
	// Only the timed segments count: the recorder restarts its
	// bookkeeping at the first timed segment by diffing against a
	// report built here.
	before := rec.BuildReport(perfcount.Snapshot{})
	startMsgs, startBytes := exchangeTraffic(rec)
	stats0 := c.st.Stats()
	iters, err := c.loop(budget, &out.tally)
	if err != nil {
		return err
	}
	stats1 := c.st.Stats()
	endMsgs, endBytes := exchangeTraffic(rec)
	after := rec.BuildReport(perfcount.Snapshot{})
	out.tally.final(sameHash("traced vs untraced campaign", c.firstHash, untracedFirst))
	rep := diffReport(after, before)
	segs := len(iters)
	m := metrics{}
	decompMetrics(m, rep, segs*segSteps)
	n := len(rep.Ranks)
	perSeg := func(kinds ...obs.SpanKind) float64 {
		var ns int64
		for _, s := range rep.Ranks {
			ns += sumKinds(s, kinds)
		}
		return perStepMS(ns, n, segs)
	}
	driver := func(k obs.SpanKind) float64 {
		if rep.Driver == nil {
			return 0
		}
		return perStepMS(rep.Driver.ByKind[k], 1, segs)
	}
	stepMS := perSeg(stepKinds...)
	scatter, gather := perSeg(obs.SpanScatter), perSeg(obs.SpanGather)
	setup, diag := perSeg(obs.SpanSetup), perSeg(obs.SpanDiagnose, obs.SpanCollective)
	write, read := driver(obs.SpanCkptWrite), driver(obs.SpanCkptRead)
	iterMS := meanMS(iters)
	frac := unattributedFrac(iterMS, stepMS, scatter, gather, setup, diag, write, read)
	m.set("resilience.step_ms", stepMS, "ms")
	m.set("decomp.scatter_ms", scatter, "ms")
	m.set("decomp.gather_ms", gather, "ms")
	m.set("decomp.rank_setup_ms", setup, "ms")
	m.set("snapshot.ckpt_write_ms", write, "ms")
	m.set("snapshot.ckpt_read_ms", read, "ms")
	m.set("campaign.unattributed_ms", frac*iterMS, "ms")
	m.set("step.unattributed_frac", frac, "frac")
	// A segment re-applies the constraints after building and restoring
	// its ranks, so the exchange traffic per step includes that share.
	m.set("mpi.msgs_per_step", float64(endMsgs-startMsgs)/float64(segs*segSteps), "count")
	m.set("mpi.bytes_per_step", float64(endBytes-startBytes)/float64(segs*segSteps), "B")
	put := stats1.PutBytes - stats0.PutBytes
	dedup := stats1.DedupBytes - stats0.DedupBytes
	m.set("store.bytes_per_commit", float64(put)/float64(segs), "B")
	if put+dedup > 0 {
		m.set("store.dedup_frac", float64(dedup)/float64(put+dedup), "frac")
	} else {
		m.set("store.dedup_frac", 0, "frac")
	}
	if err := replayStore(m, c.last.Final, filepath.Join(o.workDir, "replay")); err != nil {
		return err
	}
	m.set("telemetry.publish_ns", publishNS(&out.tally), "ns")
	m.set("trace.overhead_frac", median(sortedMS(iters))/median(sortedMS(out.iters))-1, "frac")
	m.set("trace.spans_dropped", float64(after.SpansDropped), "count")
	if _, err := replayFinal(m, c.last.Final, c.dt, &out.tally); err != nil {
		return err
	}
	out.layers = m
	return nil
}
