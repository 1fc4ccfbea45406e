package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 11; n <= 500; n++ {
		p, idx, ok := tailPercentile(n, 10)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		if beyond := n - 1 - idx; beyond < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond, want >= 10", n, p, beyond)
		}
		// The next whole percentile must leave fewer than ten.
		if next := p + 1; next <= 100 {
			k := (next*n + 99) / 100
			if n-k >= 10 {
				t.Fatalf("n=%d: p%d is not the highest; p%d also leaves %d beyond", n, p, next, n-k)
			}
		}
	}
}

func TestTailPercentileKnownCases(t *testing.T) {
	cases := []struct{ n, p, idx int }{
		{100, 90, 89},
		{1000, 99, 989},
		{61, 83, 50},
		{11, 9, 0},
	}
	for _, c := range cases {
		p, idx, ok := tailPercentile(c.n, 10)
		if !ok || p != c.p || idx != c.idx {
			t.Errorf("n=%d: got p%d idx %d ok=%v, want p%d idx %d", c.n, p, idx, ok, c.p, c.idx)
		}
	}
	if _, _, ok := tailPercentile(10, 10); ok {
		t.Errorf("n=10 has no percentile with ten samples beyond it")
	}
}

func TestTailOfSamples(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	v, p, beyond := tail(asc)
	if v != 90 || p != 90 || beyond != 10 {
		t.Errorf("tail = %v p%d beyond %d, want 90 p90 beyond 10", v, p, beyond)
	}
	v, p, beyond = tail(asc[:5])
	if v != 5 || p != 100 || beyond != 0 {
		t.Errorf("short run tail = %v p%d beyond %d, want its maximum as p100", v, p, beyond)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	ms := sortedMS([]time.Duration{3 * time.Millisecond, time.Millisecond})
	if ms[0] != 1 || ms[1] != 3 {
		t.Errorf("sortedMS = %v", ms)
	}
}

func TestTallyCountsEachFailedIterationOnce(t *testing.T) {
	var tl tally
	bad := errors.New("bad")
	tl.iter(nil, nil)
	tl.iter(bad, bad) // two failed checks, one failed iteration
	tl.iter(nil, bad)
	tl.final(nil)
	tl.final(errors.New("store not clean"))
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 5 and 3", tl.attempted, tl.failed)
	}
	if !errors.Is(tl.firstErr, bad) {
		t.Errorf("first error = %v, want the first failure", tl.firstErr)
	}
	if f := tl.failFrac(); f != 0.6 {
		t.Errorf("fail_frac = %v, want 0.6", f)
	}
	var empty tally
	if empty.failFrac() != 0 {
		t.Errorf("empty tally fail_frac = %v", empty.failFrac())
	}
}

func TestExclusiveTimeArithmetic(t *testing.T) {
	// 2 ranks x 4 steps: 8 ms of halo wait in all is 1 ms per rank-step.
	if v := perStepMS(8e6, 2, 4); v != 1 {
		t.Errorf("perStepMS = %v, want 1", v)
	}
	if v := perStepMS(8e6, 0, 4); v != 0 {
		t.Errorf("perStepMS without ranks = %v, want 0", v)
	}
	if f := unattributedFrac(10, 6, 3); math.Abs(f-0.1) > 1e-12 {
		t.Errorf("unattributedFrac = %v, want 0.1", f)
	}
	if f := unattributedFrac(10, 8, 4); math.Abs(f+0.2) > 1e-12 {
		t.Errorf("over-attributed frac = %v, want -0.2 (kept visible)", f)
	}
	if f := unattributedFrac(0, 1); !math.IsNaN(f) {
		t.Errorf("empty iteration frac = %v, want NaN", f)
	}
	if s := skew([]float64{2, 3, 4}); s != 2 {
		t.Errorf("skew = %v, want 2", s)
	}
}

func TestDiffReportAndDecompMetrics(t *testing.T) {
	rank := func(r int, wall, cover int64, excl map[obs.SpanKind]int64) obs.RankSummary {
		s := obs.RankSummary{Rank: r, WallNS: wall, CoverNS: cover}
		for k, v := range excl {
			s.ByKind[k] = v
		}
		return s
	}
	before := &obs.Report{Ranks: []obs.RankSummary{
		rank(0, 1e6, 1e6, map[obs.SpanKind]int64{obs.SpanSetup: 1e6}),
		rank(1, 1e6, 1e6, map[obs.SpanKind]int64{obs.SpanSetup: 1e6}),
	}}
	// Two steps per rank after set-up. Rank 0: step self 2 ms, rhs 6 ms,
	// halo wait 2 ms. Rank 1: step self 2 ms, rhs 4 ms, halo wait 4 ms.
	after := &obs.Report{Ranks: []obs.RankSummary{
		rank(0, 11e6, 11e6, map[obs.SpanKind]int64{obs.SpanSetup: 1e6, obs.SpanStep: 2e6, obs.SpanRHS: 6e6, obs.SpanHaloWait: 2e6}),
		rank(1, 11e6, 11e6, map[obs.SpanKind]int64{obs.SpanSetup: 1e6, obs.SpanStep: 2e6, obs.SpanRHS: 4e6, obs.SpanHaloWait: 4e6}),
	}, SpansDropped: 0}
	d := diffReport(after, before)
	if d.Ranks[0].ByKind[obs.SpanSetup] != 0 || d.Ranks[1].WallNS != 10e6 {
		t.Fatalf("diffReport kept set-up time: %+v", d.Ranks[0])
	}
	m := metrics{}
	un := decompMetrics(m, d, 2)
	want := map[string]float64{
		"decomp.rhs_self_ms":   2.5, // (6+4) ms / 2 ranks / 2 steps
		"decomp.halo_wait_ms":  1.5,
		"decomp.step_self_ms":  1,
		"mpi.wait_frac":        0.3,       // 6 of 20 ms
		"decomp.rank_skew":     8.0 / 6.0, // busy 8 ms vs 6 ms
		"decomp.span_coverage": 1,
	}
	for k, v := range want {
		if got := m[k].Value; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if math.Abs(un-0.2) > 1e-12 { // 4 ms of step self time in 20 ms of steps
		t.Errorf("unattributed = %v, want 0.2", un)
	}
}
