package telemetry

// Continuous profiling: the campaign driver brackets every segment
// attempt with a CPU profile and snapshots the heap at the boundary;
// the resulting pprof blobs are committed into the run's store
// manifest next to the segment's checkpoint (see the sink's artifacts
// path in internal/resilience). Profiling is process-global and
// signal-driven — it perturbs scheduling, never arithmetic, so a
// profiled campaign stays sha256-identical to an unprofiled one (the
// same argument, and the same golden tests, as for the chaos delay
// faults).
//
// Cost model: finalizing a CPU profile takes at least 100–200 ms of
// wall time whatever the segment's length, because runtime/pprof's
// writer goroutine polls the sample buffer every 100 ms and the stop
// waits for it to see the end. StopSampling ends sampling at once and
// leaves that drain to a background goroutine, so the driver overlaps
// it with the segment's commit and joins it (Stop) only when it needs
// the bytes. A campaign whose segments are short next to the drain
// should set Config.NoProfile.

import (
	"bytes"
	"runtime"
	"runtime/pprof"
)

// SegProfiler is one segment's CPU profile capture. Only one CPU
// profile can run per process; when another holder (a test, a pprof
// HTTP scrape) already has it, StartSegProfile degrades to an
// inactive profiler whose Stop returns nil.
type SegProfiler struct {
	buf    bytes.Buffer
	active bool
	// drained is closed once the background stop has finalized buf;
	// nil until StopSampling runs.
	drained chan struct{}
}

// StartSegProfile begins a CPU profile for the segment, if the
// process-wide profiler is free.
func StartSegProfile() *SegProfiler {
	sp := &SegProfiler{}
	if err := pprof.StartCPUProfile(&sp.buf); err == nil {
		sp.active = true
	}
	return sp
}

// StopSampling ends sampling now and finalizes the profile in the
// background; Stop joins it. The process-wide profiler stays held
// until that join. Safe on nil, on an inactive profiler and twice.
func (sp *SegProfiler) StopSampling() {
	if sp == nil || !sp.active || sp.drained != nil {
		return
	}
	// Rate 0 stops the sampling signal synchronously; the pprof stop
	// below then only waits out the writer's poll and turns the
	// samples into the profile.
	runtime.SetCPUProfileRate(0)
	sp.drained = make(chan struct{})
	go func() {
		pprof.StopCPUProfile()
		close(sp.drained)
	}()
}

// Stop ends the capture (if StopSampling has not), waits until the
// profile is finalized and the process-wide profiler is free again,
// and returns the pprof bytes (nil when the profiler never engaged).
// Safe on nil and safe to call twice.
func (sp *SegProfiler) Stop() []byte {
	if sp == nil || !sp.active {
		return nil
	}
	sp.StopSampling()
	<-sp.drained
	sp.active = false
	return sp.buf.Bytes()
}

// HeapProfile returns the current heap profile in pprof format.
func HeapProfile() []byte {
	var buf bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		p.WriteTo(&buf, 0) //nolint:errcheck — a bytes.Buffer write cannot fail
	}
	return buf.Bytes()
}
