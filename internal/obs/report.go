package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/perfcount"
)

// RankSummary is the per-rank time decomposition derived from the span
// ring. Comm/Wait are *exclusive* (self) times — nested spans are
// subtracted from their parents — so the three classes partition the
// rank's observed wall window exactly: Compute = Wall - Comm - Wait,
// with any un-spanned time attributed to compute.
type RankSummary struct {
	Rank    int
	WallNS  int64
	CommNS  int64
	WaitNS  int64
	CompNS  int64
	CoverNS int64 // total duration of top-level (depth 0) spans
	Spans   int
	Dropped int64
	ByKind  [numSpanKinds]int64 // exclusive ns per span kind
}

// Coverage returns the fraction of the rank's wall window covered by
// top-level spans (the acceptance criterion asks >= 0.95).
func (s RankSummary) Coverage() float64 {
	if s.WallNS == 0 {
		return 0
	}
	return float64(s.CoverNS) / float64(s.WallNS)
}

// TagSummary is one message stream's aggregate for the report.
type TagSummary struct {
	Comm, Tag   int
	Msgs, Bytes int64
	WaitMeanNS  float64
	WaitP99NS   int64
}

// Report is the aggregated run summary: the per-rank compute/comm/wait
// decomposition, the message-stream table, the gauge ranges, the pool
// utilization and the perfcount-derived effective rates.
type Report struct {
	Ranks  []RankSummary // solver ranks, ascending (driver excluded)
	Driver *RankSummary  // campaign driver track, if recorded
	Steps  int           // 1 + max step stamped on any span
	Tags   []TagSummary  // sorted by bytes, descending
	Gauges map[string]GaugeStat
	Perf   perfcount.Snapshot

	PoolBusyNS, PoolWallNS, PoolCalls, PoolWorkers int64

	// Observability health, surfaced at the top of the report: data
	// silently discarded is the one thing a summary must not hide.
	// SpansDropped totals the spans overwritten across every rank's
	// full ring (BuildReport fills it); EventsDropped counts events
	// overwritten in the bounded run EventLog and Alerts lists the
	// latched telemetry anomaly alerts — both set by the caller, since
	// obs is a leaf package that cannot import the runtime or the
	// telemetry plane.
	SpansDropped  int64
	EventsDropped int64
	Alerts        []string
}

// summarize reduces one rank's ring into a RankSummary. Exclusive times
// are recovered with a stack walk over the spans sorted by start (ties
// broken by depth, parents first): each span's duration is subtracted
// from its innermost enclosing ancestor, which the recorded nesting
// depth identifies unambiguously even when coarse clocks tie.
func summarize(rank int, recs []spanRec, winStart, winEnd int64) RankSummary {
	s := RankSummary{Rank: rank, Spans: len(recs)}
	if winEnd > winStart {
		s.WallNS = winEnd - winStart
	}
	sorted := make([]spanRec, len(recs))
	copy(sorted, recs)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].depth < sorted[j].depth
	})
	excl := make([]int64, len(sorted))
	var stack []int
	for i, r := range sorted {
		excl[i] = r.dur
		for len(stack) > 0 && sorted[stack[len(stack)-1]].depth >= r.depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			excl[stack[len(stack)-1]] -= r.dur
		}
		stack = append(stack, i)
		if r.depth == 0 {
			s.CoverNS += r.dur
		}
	}
	for i, r := range sorted {
		e := excl[i]
		if e < 0 {
			e = 0 // clock ties can over-subtract by a few ns; clamp
		}
		s.ByKind[r.kind] += e
		switch ClassOf(r.kind) {
		case ClassComm:
			s.CommNS += e
		case ClassWait:
			s.WaitNS += e
		}
	}
	s.CompNS = s.WallNS - s.CommNS - s.WaitNS
	if s.CompNS < 0 {
		// Spans recorded outside the Open/Close window (should not
		// happen); fold the excess into the wall so classes still
		// partition it.
		s.WallNS -= s.CompNS
		s.CompNS = 0
	}
	return s
}

// BuildReport aggregates the recorder into a Report. perf should be the
// run's perfcount interval (end snapshot minus the snapshot taken at
// recorder creation). Call after the recorded runs have returned.
func (r *Recorder) BuildReport(perf perfcount.Snapshot) *Report {
	if r == nil {
		return nil
	}
	rep := &Report{Gauges: map[string]GaugeStat{}, Perf: perf}
	for _, rank := range r.Ranks() {
		rr := r.ranks[rank]
		sum := summarize(rank, rr.spans(), rr.winStart, rr.winEnd)
		sum.Dropped = rr.dropped
		if rank == DriverRank {
			d := sum
			rep.Driver = &d
		} else {
			rep.Ranks = append(rep.Ranks, sum)
		}
		rep.SpansDropped += sum.Dropped
		if int(rr.maxStep)+1 > rep.Steps {
			rep.Steps = int(rr.maxStep) + 1
		}
		for name, g := range rr.gauges {
			m, ok := rep.Gauges[name]
			if !ok {
				rep.Gauges[name] = *g
				continue
			}
			if g.Min < m.Min {
				m.Min = g.Min
			}
			if g.Max > m.Max {
				m.Max = g.Max
			}
			m.Sum += g.Sum
			m.N += g.N
			m.Last = g.Last
			rep.Gauges[name] = m
		}
	}
	for k, st := range r.TagStats() {
		rep.Tags = append(rep.Tags, TagSummary{
			Comm: k.Comm, Tag: k.Tag,
			Msgs: st.Msgs.Load(), Bytes: st.Bytes.Load(),
			WaitMeanNS: st.Wait.Mean(), WaitP99NS: st.Wait.Quantile(0.99),
		})
	}
	sort.Slice(rep.Tags, func(i, j int) bool {
		if rep.Tags[i].Bytes != rep.Tags[j].Bytes {
			return rep.Tags[i].Bytes > rep.Tags[j].Bytes
		}
		if rep.Tags[i].Comm != rep.Tags[j].Comm {
			return rep.Tags[i].Comm < rep.Tags[j].Comm
		}
		return rep.Tags[i].Tag < rep.Tags[j].Tag
	})
	rep.PoolBusyNS = r.pool.BusyNS.Load()
	rep.PoolWallNS = r.pool.WallNS.Load()
	rep.PoolCalls = r.pool.Calls.Load()
	rep.PoolWorkers = r.pool.Workers.Load()
	return rep
}

// ClassPercents returns the run-wide compute/comm/wait percentages,
// aggregated over all solver ranks. They sum to 100 by construction
// (the three classes partition each rank's wall window).
func (rep *Report) ClassPercents() (compute, comm, wait float64) {
	var wall, c, w int64
	for _, s := range rep.Ranks {
		wall += s.WallNS
		c += s.CommNS
		w += s.WaitNS
	}
	if wall == 0 {
		return 0, 0, 0
	}
	comm = 100 * float64(c) / float64(wall)
	wait = 100 * float64(w) / float64(wall)
	compute = 100 - comm - wait
	return compute, comm, wait
}

// minMaxAvg computes the report's three columns over the solver ranks.
func (rep *Report) minMaxAvg(get func(RankSummary) float64) (mn float64, mnAt int, mx float64, mxAt int, avg float64) {
	if len(rep.Ranks) == 0 {
		return 0, 0, 0, 0, 0
	}
	mn, mx = get(rep.Ranks[0]), get(rep.Ranks[0])
	mnAt, mxAt = rep.Ranks[0].Rank, rep.Ranks[0].Rank
	var sum float64
	for _, s := range rep.Ranks {
		v := get(s)
		sum += v
		if v < mn {
			mn, mnAt = v, s.Rank
		}
		if v > mx {
			mx, mxAt = v, s.Rank
		}
	}
	return mn, mnAt, mx, mxAt, sum / float64(len(rep.Ranks))
}

const nsPerSec = 1e9

// Format renders the report in the spirit of the Earth Simulator's
// MPIPROGINF List 1: per-rank Min/Max/Average columns, then overall
// totals and effective rates.
func (rep *Report) Format() string {
	var b strings.Builder
	b.WriteString("Run Information (live solver):\n")
	b.WriteString("==============================\n")
	b.WriteString("Note: measured by internal/obs from rank start till rank finish.\n")
	// Health first: dropped observability data and anomaly alerts must
	// not be buried under the timing tables.
	spanNote, eventNote := "", ""
	if rep.SpansDropped > 0 {
		spanNote = "  ** DATA LOST: raise obs.Config.SpanCap **"
	}
	if rep.EventsDropped > 0 {
		eventNote = "  ** DATA LOST: raise the EventLog capacity **"
	}
	fmt.Fprintf(&b, "%-28s: %14d%s\n", "Spans Dropped (all ranks)", rep.SpansDropped, spanNote)
	fmt.Fprintf(&b, "%-28s: %14d%s\n", "Events Dropped", rep.EventsDropped, eventNote)
	fmt.Fprintf(&b, "%-28s: %14d\n", "Telemetry Alerts", len(rep.Alerts))
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "  ALERT %s\n", a)
	}
	fmt.Fprintf(&b, "Per-rank data of %d processes:%16s[rank]%16s[rank]%12s\n",
		len(rep.Ranks), "Min", "Max", "Average")
	b.WriteString("=============================\n")
	row := func(name string, get func(RankSummary) float64, format string) {
		mn, mnAt, mx, mxAt, avg := rep.minMaxAvg(get)
		fmt.Fprintf(&b, "%-28s: "+format+" [%d] "+format+" [%d] "+format+"\n",
			name, mn, mnAt, mx, mxAt, avg)
	}
	row("Real Time (sec)", func(s RankSummary) float64 { return float64(s.WallNS) / nsPerSec }, "%14.6f")
	row("Compute Time (sec)", func(s RankSummary) float64 { return float64(s.CompNS) / nsPerSec }, "%14.6f")
	row("Comm Time (sec)", func(s RankSummary) float64 { return float64(s.CommNS) / nsPerSec }, "%14.6f")
	row("Wait Time (sec)", func(s RankSummary) float64 { return float64(s.WaitNS) / nsPerSec }, "%14.6f")
	row("Span Coverage (%)", func(s RankSummary) float64 { return 100 * s.Coverage() }, "%14.3f")
	row("Spans Recorded", func(s RankSummary) float64 { return float64(s.Spans) }, "%14.0f")
	row("Spans Dropped", func(s RankSummary) float64 { return float64(s.Dropped) }, "%14.0f")

	compute, comm, wait := rep.ClassPercents()
	b.WriteString("\nOverall Data:\n")
	b.WriteString("=============\n")
	fmt.Fprintf(&b, "%-28s: %14d\n", "Steps", rep.Steps)
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Compute (%)", compute)
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Comm (%)", comm)
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Wait (%)", wait)
	fmt.Fprintf(&b, "%-28s: %14d\n", "FLOP Count", rep.Perf.Flops)
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Average Vector Length", rep.Perf.AverageVectorLength())
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Vector Operation Ratio (%)", 100*rep.Perf.VectorOperationRatio())
	fmt.Fprintf(&b, "%-28s: %14d\n", "Comm Bytes", rep.Perf.CommBytes)
	fmt.Fprintf(&b, "%-28s: %14d\n", "Comm Messages", rep.Perf.CommMsgs)
	if rep.Steps > 0 {
		fmt.Fprintf(&b, "%-28s: %14.1f\n", "Comm Bytes / Step", float64(rep.Perf.CommBytes)/float64(rep.Steps))
		fmt.Fprintf(&b, "%-28s: %14.1f\n", "Comm Messages / Step", float64(rep.Perf.CommMsgs)/float64(rep.Steps))
	}
	// Effective rate: aggregate flops over the average rank wall time —
	// the software analogue of List 1's "GFLOPS (rel. to User Time)".
	if _, _, _, _, avgWall := rep.minMaxAvg(func(s RankSummary) float64 { return float64(s.WallNS) / nsPerSec }); avgWall > 0 {
		fmt.Fprintf(&b, "%-28s: %14.3f\n", "Effective MFLOPS", float64(rep.Perf.Flops)/avgWall/1e6)
	}
	if rep.PoolWorkers > 0 {
		util := 0.0
		if rep.PoolWallNS > 0 {
			util = float64(rep.PoolBusyNS) / (float64(rep.PoolWallNS) * float64(rep.PoolWorkers))
		}
		fmt.Fprintf(&b, "%-28s: %14.3f (width %d, %d regions)\n", "Pool Utilization", util, rep.PoolWorkers, rep.PoolCalls)
	}

	if len(rep.Gauges) > 0 {
		b.WriteString("\nGauges:\n")
		b.WriteString("=======\n")
		names := make([]string, 0, len(rep.Gauges))
		for n := range rep.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%-12s %14s %14s %14s %8s\n", "name", "min", "max", "mean", "n")
		for _, n := range names {
			g := rep.Gauges[n]
			fmt.Fprintf(&b, "%-12s %14.6g %14.6g %14.6g %8d\n", n, g.Min, g.Max, g.Mean(), g.N)
		}
	}

	if len(rep.Tags) > 0 {
		b.WriteString("\nMessage Streams (by bytes):\n")
		b.WriteString("===========================\n")
		fmt.Fprintf(&b, "%6s %6s %10s %14s %14s %14s\n", "comm", "tag", "msgs", "bytes", "wait.mean(us)", "wait.p99(us)")
		for _, t := range rep.Tags {
			fmt.Fprintf(&b, "%6d %6d %10d %14d %14.1f %14.1f\n",
				t.Comm, t.Tag, t.Msgs, t.Bytes, t.WaitMeanNS/1e3, float64(t.WaitP99NS)/1e3)
		}
	}

	if rep.Driver != nil {
		b.WriteString("\nDriver Track:\n")
		b.WriteString("=============\n")
		fmt.Fprintf(&b, "%-28s: %14.6f\n", "Real Time (sec)", float64(rep.Driver.WallNS)/nsPerSec)
		fmt.Fprintf(&b, "%-28s: %14.6f\n", "Checkpoint Write (sec)", float64(rep.Driver.ByKind[SpanCkptWrite])/nsPerSec)
		fmt.Fprintf(&b, "%-28s: %14.6f\n", "Checkpoint Read (sec)", float64(rep.Driver.ByKind[SpanCkptRead])/nsPerSec)
		fmt.Fprintf(&b, "%-28s: %14.6f\n", "Profile Join (sec)", float64(rep.Driver.ByKind[SpanProfileJoin])/nsPerSec)
	}
	return b.String()
}
