package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/mhd"
	"repro/internal/obs"
	"repro/internal/overset"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// decompLayers maps each decomp/mpi layer metric to the span kinds
// whose exclusive times it sums, as the obs report gives them.
var decompLayers = []struct {
	name  string
	kinds []obs.SpanKind
}{
	{"decomp.rhs_self_ms", []obs.SpanKind{obs.SpanRHS, obs.SpanRHSInterior, obs.SpanRHSRim}},
	{"decomp.halo_pack_ms", []obs.SpanKind{obs.SpanHaloPack}},
	{"decomp.halo_wait_ms", []obs.SpanKind{obs.SpanHaloWait}},
	{"decomp.halo_unpack_ms", []obs.SpanKind{obs.SpanHaloUnpack}},
	{"decomp.halo_overlap_ms", []obs.SpanKind{obs.SpanHaloOverlap}},
	{"decomp.rim_ms", []obs.SpanKind{obs.SpanRim}},
	{"decomp.overset_donate_ms", []obs.SpanKind{obs.SpanOversetDonate}},
	{"decomp.overset_wait_ms", []obs.SpanKind{obs.SpanOversetWait}},
	{"decomp.overset_recv_ms", []obs.SpanKind{obs.SpanOversetRecv}},
	{"mpi.collective_ms", []obs.SpanKind{obs.SpanCollective}},
}

// stepKinds are the span kinds recorded inside a rank's step: their
// exclusive times add up to the step's inclusive time.
var stepKinds = []obs.SpanKind{
	obs.SpanStep, obs.SpanRHS, obs.SpanRHSInterior, obs.SpanRHSRim,
	obs.SpanHaloPack, obs.SpanHaloWait, obs.SpanHaloUnpack, obs.SpanHaloOverlap, obs.SpanRim,
	obs.SpanOversetDonate, obs.SpanOversetWait, obs.SpanOversetRecv,
}

// waitKinds are the kinds spent blocked on a peer.
var waitKinds = []obs.SpanKind{obs.SpanHaloWait, obs.SpanOversetWait, obs.SpanCollective}

// sumKinds adds the exclusive nanoseconds of the kinds on one rank.
func sumKinds(s obs.RankSummary, kinds []obs.SpanKind) int64 {
	var ns int64
	for _, k := range kinds {
		ns += s.ByKind[k]
	}
	return ns
}

// decompMetrics reports the decomposed step's layers from the report's
// exclusive times, per step and averaged over the solver ranks. The
// step span's own exclusive time (Runge-Kutta combines and walls, which
// no child span covers) is reported as decomp.step_self_ms; the
// returned share of the step's inclusive time it makes up is the part
// of the step no layer accounts for.
func decompMetrics(m metrics, rep *obs.Report, steps int) (unattributed float64) {
	n := len(rep.Ranks)
	for _, l := range decompLayers {
		var ns int64
		for _, s := range rep.Ranks {
			ns += sumKinds(s, l.kinds)
		}
		m.set(l.name, perStepMS(ns, n, steps), "ms")
	}
	var self, inclAll, wait, busyDen int64
	busy := make([]float64, 0, n)
	for _, s := range rep.Ranks {
		incl := sumKinds(s, stepKinds)
		inclAll += incl
		self += s.ByKind[obs.SpanStep]
		w := sumKinds(s, waitKinds)
		wait += w
		busyDen += incl + s.ByKind[obs.SpanCollective]
		busy = append(busy, float64(incl+s.ByKind[obs.SpanCollective]-w))
	}
	m.set("decomp.step_self_ms", perStepMS(self, n, steps), "ms")
	if busyDen > 0 {
		m.set("mpi.wait_frac", float64(wait)/float64(busyDen), "frac")
	} else {
		m.set("mpi.wait_frac", 0, "frac")
	}
	m.set("decomp.rank_skew", skew(busy), "ratio")
	m.set("decomp.span_coverage", coverage(rep), "frac")
	if inclAll == 0 {
		return math.NaN()
	}
	return float64(self) / float64(inclAll)
}

// coverage is the mean over solver ranks of the share of each rank's
// observed window that top-level spans cover.
func coverage(rep *obs.Report) float64 {
	if len(rep.Ranks) == 0 {
		return 0
	}
	var c float64
	for _, s := range rep.Ranks {
		c += s.Coverage()
	}
	return c / float64(len(rep.Ranks))
}

// zeroDecomp reports the decomp and mpi layers of a workload without
// ranks: it spends no time and sends no message in them.
func zeroDecomp(m metrics) {
	for _, l := range decompLayers {
		m.set(l.name, 0, "ms")
	}
	m.set("decomp.step_self_ms", 0, "ms")
	m.set("mpi.msgs_per_step", 0, "count")
	m.set("mpi.bytes_per_step", 0, "B")
	m.set("mpi.wait_frac", 0, "frac")
	m.set("decomp.rank_skew", 0, "ratio")
	m.set("decomp.span_coverage", 0, "frac")
}

// campaignLayers are the per-layer metrics only a campaign exercises.
var campaignLayers = []struct{ name, unit string }{
	{"resilience.step_ms", "ms"},
	{"decomp.scatter_ms", "ms"},
	{"decomp.gather_ms", "ms"},
	{"decomp.rank_setup_ms", "ms"},
	{"snapshot.ckpt_write_ms", "ms"},
	{"snapshot.ckpt_read_ms", "ms"},
	{"campaign.unattributed_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.put_dedup_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.bytes_per_commit", "B"},
	{"store.dedup_frac", "frac"},
}

// zeroCampaign reports the campaign layers of a workload that runs no
// campaign.
func zeroCampaign(m metrics) {
	for _, l := range campaignLayers {
		m.set(l.name, 0, l.unit)
	}
}

// publishNS replays telemetry.RankPub.Publish, the one call a rank
// makes into the telemetry plane per step, and returns its median cost
// over batches. A reader must then see the last published snapshot.
func publishNS(t *tally) float64 {
	var pub telemetry.RankPub
	snap := telemetry.Snapshot{Step: 1, DT: 1e-4, Mass: 1}
	const batch, batches = 1 << 14, 9
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			snap.Step++
			pub.Publish(snap)
		}
		xs[b] = float64(time.Since(t0)) / batch
	}
	if got, ok := pub.Read(); !ok || got != snap {
		t.final(fmt.Errorf("telemetry replay: read %+v after publishing %+v", got, snap))
	} else {
		t.final(nil)
	}
	return median(xs)
}

// finalReplays is how many timed replays replayFinal makes.
const finalReplays = 5

// replayFinal reports the mhd and overset layers: it replays one step
// of the run's final state layer by layer on a throwaway copy made by a
// checkpoint round-trip, reloading the state into the copy before each
// replay, and checks every replay against mhd.Solver.Advance on another
// copy. One untimed replay first warms the copy's memory. It returns the
// per-layer medians in replayLayers order.
func replayFinal(m metrics, sv *mhd.Solver, dt float64, t *tally) ([]float64, error) {
	plan, err := overset.PlanFor(sv.Spec)
	if err != nil {
		return nil, err
	}
	ex := overset.NewExchanger(plan, 1)
	ref, err := throwawayCopy(sv)
	if err != nil {
		return nil, err
	}
	ref.Advance(dt)
	want, err := stateHash(ref)
	if err != nil {
		return nil, err
	}
	cp, err := throwawayCopy(sv)
	if err != nil {
		return nil, err
	}
	var replays []layerTimes
	for i := 0; i <= finalReplays; i++ {
		for p, pl := range cp.Panels {
			pl.U.CopyFrom(&sv.Panels[p].U)
		}
		cp.Time, cp.Step = sv.Time, sv.Step
		lt := replayStep(cp, ex, dt)
		got, err := stateHash(cp)
		if err != nil {
			return nil, err
		}
		t.final(sameHash(fmt.Sprintf("layer replay %d vs Advance", i), got, want))
		if i > 0 {
			replays = append(replays, lt)
		}
	}
	return replayMetrics(m, replays, sv), nil
}

// diffReport returns the spans recorded between two reports of one
// recorder: per-rank exclusive times, window and coverage are
// differences of after and before. It is exact while no ring has
// overwritten a span.
func diffReport(after, before *obs.Report) *obs.Report {
	out := &obs.Report{SpansDropped: after.SpansDropped - before.SpansDropped}
	prev := map[int]obs.RankSummary{}
	for _, s := range before.Ranks {
		prev[s.Rank] = s
	}
	for _, s := range after.Ranks {
		out.Ranks = append(out.Ranks, subSummary(s, prev[s.Rank]))
	}
	if after.Driver != nil {
		d := *after.Driver
		if before.Driver != nil {
			d = subSummary(d, *before.Driver)
		}
		out.Driver = &d
	}
	return out
}

// subSummary is a - b for every time and count of a rank summary.
func subSummary(a, b obs.RankSummary) obs.RankSummary {
	a.WallNS -= b.WallNS
	a.CommNS -= b.CommNS
	a.WaitNS -= b.WaitNS
	a.CompNS -= b.CompNS
	a.CoverNS -= b.CoverNS
	a.Spans -= b.Spans
	a.Dropped -= b.Dropped
	for k := range a.ByKind {
		a.ByKind[k] -= b.ByKind[k]
	}
	return a
}

// replayStore replays the store calls of a commit on a scratch store
// fed the checkpoint bytes of sv: a fresh Put (each replay's blob
// differs in one byte), a deduplicated Put of the same bytes, a Get,
// and a ledger Append pinning the blob. It reports the median time of
// each.
func replayStore(m metrics, sv *mhd.Solver, dir string) error {
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, sv); err != nil {
		return err
	}
	be, err := store.NewDirBackend(dir)
	if err != nil {
		return err
	}
	st, err := store.Open(be)
	if err != nil {
		return err
	}
	var put, dedup, get, app []float64
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
	for i := 0; i < storeReplays; i++ {
		data := append([]byte(nil), buf.Bytes()...)
		data[len(data)-1] ^= byte(i + 1)
		t0 := time.Now()
		h, err := st.Put(data)
		if err != nil {
			return err
		}
		put = append(put, ms(t0))
		t0 = time.Now()
		if _, err := st.Put(data); err != nil {
			return err
		}
		dedup = append(dedup, ms(t0))
		t0 = time.Now()
		got, err := st.Get(h)
		if err != nil {
			return err
		}
		get = append(get, ms(t0))
		if !bytes.Equal(got, data) {
			return fmt.Errorf("store replay: Get returned different bytes")
		}
		t0 = time.Now()
		if _, err := st.Append(store.Manifest{Run: "replay", Step: i, Note: "replay",
			Artifacts: []store.Artifact{{Name: fmt.Sprintf("ckpt-%d", i), Role: "checkpoint", Hash: h, Size: int64(len(data))}}}); err != nil {
			return err
		}
		app = append(app, ms(t0))
	}
	m.set("store.put_ms", median(put), "ms")
	m.set("store.put_dedup_ms", median(dedup), "ms")
	m.set("store.get_ms", median(get), "ms")
	m.set("store.append_ms", median(app), "ms")
	return nil
}
