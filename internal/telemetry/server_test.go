package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// servePlane spins up a plane on a loopback port with one published
// rank and an attached event log, and tears it down with the test.
func servePlane(t *testing.T) (*Plane, string, *mpi.EventLog) {
	t.Helper()
	p := New(Config{Interval: 50 * time.Millisecond})
	events := mpi.NewEventLog()
	p.Attach(Campaign{Run: "testrun", TotalSteps: 100, Events: events, Recorder: obs.New(obs.Config{})})
	p.Rank(0).Publish(Snapshot{Step: 7, DT: 0.5, DivB: 1e-9, KineticE: 1, MagneticE: 2, InternalE: 3})
	p.Rank(1).Publish(Snapshot{Step: 6, DT: 0.5})
	p.Commit(5)
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, addr, events
}

func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", url, resp.Status)
	}
	return string(body), resp
}

// TestServeMetrics: the exposition carries the progress, rank, energy
// and event families with the published values.
func TestServeMetrics(t *testing.T) {
	_, addr, _ := servePlane(t)
	body, resp := scrape(t, "http://"+addr+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition", ct)
	}
	for _, want := range []string{
		"yy_progress_committed_step 5",
		"yy_progress_total_steps 100",
		`yy_rank_step{rank="0"} 7`,
		`yy_rank_step{rank="1"} 6`,
		`yy_energy{component="magnetic"} 2`,
		"yy_events_total",
		"# TYPE yy_rank_dt gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// Every sample line's family is declared before it.
	typed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
		} else if line != "" && !strings.HasPrefix(line, "#") {
			name := line[:strings.IndexAny(line, "{ ")]
			if !typed[name] {
				t.Errorf("sample %s precedes its TYPE", name)
			}
		}
	}
}

// TestServeProgress: the JSON document reflects counters and rank rows.
func TestServeProgress(t *testing.T) {
	_, addr, _ := servePlane(t)
	body, resp := scrape(t, "http://"+addr+"/progress")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var info ProgressInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("progress JSON: %v\n%s", err, body)
	}
	if info.Run != "testrun" || info.CommittedStep != 5 || info.LiveStep != 7 || info.TotalSteps != 100 {
		t.Fatalf("progress = %+v", info)
	}
	if len(info.Ranks) != 2 || info.Ranks[0].Rank != 0 || info.Ranks[1].Rank != 1 {
		t.Fatalf("rank rows = %+v", info.Ranks)
	}
}

// TestServeEvents: the SSE stream replays retained events and tails
// new ones, with total-appended ids.
func TestServeEvents(t *testing.T) {
	_, addr, events := servePlane(t)
	events.Notef("note", "first")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events.Notef("fault.kill", "rank=1 step=3")
	sc := bufio.NewScanner(resp.Body)
	var kinds []string
	for sc.Scan() && len(kinds) < 2 {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, line[len("event: "):])
		}
	}
	if len(kinds) < 2 || kinds[0] != "note" || kinds[1] != "fault.kill" {
		t.Fatalf("streamed kinds = %v", kinds)
	}
}

// TestServePprofIndex: the standard profiling endpoints are mounted.
func TestServePprofIndex(t *testing.T) {
	_, addr, _ := servePlane(t)
	body, _ := scrape(t, "http://"+addr+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index did not render:\n%.200s", body)
	}
}

// TestServeTwiceRejected: one server per plane.
func TestServeTwiceRejected(t *testing.T) {
	p, _, _ := servePlane(t)
	if _, err := p.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("second Serve succeeded")
	}
}

// TestNilPlaneEndpoints: nil is off everywhere on the collector side
// too.
func TestNilPlane(t *testing.T) {
	var p *Plane
	if _, err := p.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("nil plane served")
	}
	p.Attach(Campaign{Run: "x"})
	p.SegmentStart(1, 0)
	p.Commit(1)
	p.Retry()
	p.Finish(1)
	p.Evaluate()
	if p.Rank(0) != nil {
		t.Fatal("nil plane returned a pub")
	}
	if got := p.Progress(); got.Run != "" {
		t.Fatalf("nil plane progress = %+v", got)
	}
	if p.Addr() != "" || p.Close() != nil || p.Alerts() != nil {
		t.Fatal("nil plane leaked state")
	}
	if p.ProfileSegments() {
		t.Fatal("nil plane wants profiles")
	}
}

// TestSegProfiler: the bracket captures a non-empty pprof blob and a
// second holder degrades instead of panicking.
func TestSegProfiler(t *testing.T) {
	sp := StartSegProfile()
	inner := StartSegProfile() // profiler busy: must degrade
	if got := inner.Stop(); got != nil {
		t.Fatalf("degraded profiler returned %d bytes", len(got))
	}
	busy := 0.0
	for i := 0; i < 1e6; i++ {
		busy += float64(i)
	}
	_ = busy
	data := sp.Stop()
	if len(data) == 0 {
		t.Fatal("active profiler returned no data")
	}
	if sp.Stop() != nil {
		t.Fatal("second Stop returned data")
	}
	var nilSP *SegProfiler
	if nilSP.Stop() != nil {
		t.Fatal("nil profiler returned data")
	}
	if len(HeapProfile()) == 0 {
		t.Fatal("heap profile empty")
	}
}

// TestSegProfilerStopSampling: StopSampling hands the drain to the
// background and Stop joins it — the bytes still arrive, repeat calls
// and nil are safe, and the profiler is free for the next segment.
func TestSegProfilerStopSampling(t *testing.T) {
	var nilSP *SegProfiler
	nilSP.StopSampling()
	for i := 0; i < 2; i++ {
		sp := StartSegProfile()
		inner := StartSegProfile() // profiler busy: degraded, a no-op
		inner.StopSampling()
		if inner.Stop() != nil {
			t.Fatalf("segment %d: degraded profiler returned data", i)
		}
		sp.StopSampling()
		sp.StopSampling()
		if data := sp.Stop(); len(data) == 0 {
			t.Fatalf("segment %d: joined profiler returned no data", i)
		}
		if sp.Stop() != nil {
			t.Fatalf("segment %d: second Stop returned data", i)
		}
	}
}
