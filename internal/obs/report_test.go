package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/perfcount"
)

// mk builds a span record with explicit times for the summarize tests.
func mk(start, dur int64, kind SpanKind, depth uint8, step int32) spanRec {
	return spanRec{start: start, dur: dur, step: step, kind: kind, depth: depth}
}

func TestSummarizeExclusiveTimes(t *testing.T) {
	// One rank, wall [0,100):
	//   step [0,100) depth 0           compute container
	//     rhs [10,60) depth 1          compute container
	//       halo.wait [20,30) depth 2  wait
	//     halo.pack [60,70) depth 1    comm
	recs := []spanRec{
		mk(20, 10, SpanHaloWait, 2, 0),
		mk(10, 50, SpanRHS, 1, 0),
		mk(60, 10, SpanHaloPack, 1, 0),
		mk(0, 100, SpanStep, 0, 0),
	}
	s := summarize(0, recs, 0, 100)
	if s.WallNS != 100 {
		t.Fatalf("wall = %d", s.WallNS)
	}
	if s.WaitNS != 10 {
		t.Fatalf("wait = %d, want 10 (halo.wait self time)", s.WaitNS)
	}
	if s.CommNS != 10 {
		t.Fatalf("comm = %d, want 10 (halo.pack self time)", s.CommNS)
	}
	if s.CompNS != 80 {
		t.Fatalf("compute = %d, want 80", s.CompNS)
	}
	if s.CoverNS != 100 || s.Coverage() != 1.0 {
		t.Fatalf("coverage = %d (%.2f), want full", s.CoverNS, s.Coverage())
	}
	// Exclusive per kind: step excludes its children, 100-50-10 = 40;
	// rhs excludes the wait, 50-10 = 40.
	if s.ByKind[SpanStep] != 40 || s.ByKind[SpanRHS] != 40 {
		t.Fatalf("ByKind step=%d rhs=%d, want 40/40", s.ByKind[SpanStep], s.ByKind[SpanRHS])
	}
}

func TestSummarizeTiedStarts(t *testing.T) {
	// Parent and child begin at the same coarse timestamp; depth must
	// disambiguate (parent first), so the child still subtracts.
	recs := []spanRec{
		mk(0, 40, SpanHaloWait, 1, 0),
		mk(0, 100, SpanStep, 0, 0),
	}
	s := summarize(0, recs, 0, 100)
	if s.WaitNS != 40 {
		t.Fatalf("wait = %d, want 40", s.WaitNS)
	}
	if s.ByKind[SpanStep] != 60 {
		t.Fatalf("step self = %d, want 60", s.ByKind[SpanStep])
	}
}

func TestClassPercentsSumTo100(t *testing.T) {
	rep := &Report{Ranks: []RankSummary{
		{Rank: 0, WallNS: 1000, CommNS: 300, WaitNS: 200, CompNS: 500},
		{Rank: 1, WallNS: 900, CommNS: 100, WaitNS: 400, CompNS: 400},
	}}
	c, m, w := rep.ClassPercents()
	if sum := c + m + w; sum < 99.999 || sum > 100.001 {
		t.Fatalf("percentages sum to %g, want 100", sum)
	}
	if c <= 0 || m <= 0 || w <= 0 {
		t.Fatalf("degenerate split: compute=%g comm=%g wait=%g", c, m, w)
	}
}

func TestBuildReportEndToEnd(t *testing.T) {
	r := New(Config{})
	for rank := 0; rank < 2; rank++ {
		rr := r.RankFor(rank)
		rr.Open()
		for step := 0; step < 3; step++ {
			rr.SetStep(step)
			sp := rr.Begin(SpanStep)
			w := rr.Begin(SpanHaloWait)
			w.End()
			sp.End()
			rr.SetGauge("dt", 0.5)
		}
		rr.Close()
	}
	r.CommDelivered(0, 7, 256)
	r.CommWaited(0, 7, 1500)
	rep := r.BuildReport(perfcount.Snapshot{Flops: 1000, CommBytes: 2048, CommMsgs: 8})
	if len(rep.Ranks) != 2 {
		t.Fatalf("ranks = %d", len(rep.Ranks))
	}
	if rep.Steps != 3 {
		t.Fatalf("steps = %d, want 3", rep.Steps)
	}
	c, m, w := rep.ClassPercents()
	if sum := c + m + w; sum < 99.0 || sum > 101.0 {
		t.Fatalf("percent sum = %g", sum)
	}
	g, ok := rep.Gauges["dt"]
	if !ok || g.N != 6 {
		t.Fatalf("dt gauge merged = %+v ok=%v, want N=6", g, ok)
	}
	if len(rep.Tags) != 1 || rep.Tags[0].Bytes != 256 {
		t.Fatalf("tags = %+v", rep.Tags)
	}
	out := rep.Format()
	for _, want := range []string{
		"Run Information", "Compute (%)", "Comm (%)", "Wait (%)",
		"FLOP Count", "Message Streams", "Gauges", "dt",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBuildReportDriverTrack(t *testing.T) {
	r := New(Config{})
	d := r.Driver()
	d.Open()
	sp := d.Begin(SpanCkptWrite)
	sp.End()
	pj := d.Begin(SpanProfileJoin)
	time.Sleep(time.Millisecond)
	pj.End()
	d.Close()
	rr := r.RankFor(0)
	rr.Open()
	rr.Close()
	rep := r.BuildReport(perfcount.Snapshot{})
	if rep.Driver == nil {
		t.Fatal("driver track not summarized")
	}
	if len(rep.Ranks) != 1 || rep.Ranks[0].Rank != 0 {
		t.Fatalf("solver ranks = %+v (driver must be excluded)", rep.Ranks)
	}
	if !strings.Contains(rep.Format(), "Driver Track") {
		t.Fatal("report missing driver section")
	}
	// The profile join is driver wait time, reported on its own line.
	if j := rep.Driver.ByKind[SpanProfileJoin]; j <= 0 || rep.Driver.WaitNS != j {
		t.Fatalf("profile join %d ns, driver wait %d ns; want equal and positive", j, rep.Driver.WaitNS)
	}
	if !strings.Contains(rep.Format(), "Profile Join (sec)") {
		t.Fatal("report missing the profile join line")
	}
}
