// Command stepbench is the repository's whole-step benchmark. It runs
// one named workload of the Yin-Yang solver for a given seed and time
// budget, checks the solver's outputs, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash stepbench/run.sh --workload serial --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that prints the per-layer metrics. The
// benchmark drives the solver only through its public entry points and
// times every call from its own files. METRICS.md describes the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its state ready to step;
// setup_s is the median.
const setupReps = 5

// opts are one run's settings.
type opts struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	workDir string // run-private scratch directory inside the checkout
}

// outcome is what a workload run measured.
type outcome struct {
	iters         []time.Duration // timed iterations of the untraced phase
	setups        []time.Duration
	pointsPerIter float64 // grid points x steps of one iteration
	peakRSS       float64 // process high-water RSS (MiB) when the timed loop ended
	tally         tally
	layers        metrics  // per-layer metrics (traced runs only)
	notMeasured   []string // per-layer groups this workload does not exercise
	notes         []string // human-readable lines printed before the result
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

var workloads = map[string]func(opts) (*outcome, error){
	"serial":   runSerial,
	"world4":   runWorld,
	"campaign": runCampaign,
}

func main() {
	name := flag.String("workload", "", "workload: serial, world4 or campaign")
	seed := flag.Uint64("seed", 1, "seed of the initial perturbation (and the campaign run id)")
	secs := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	host := flag.Bool("host", false, "print the host stamp as JSON and exit")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *host {
		if err := printHost(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "stepbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: stepbench --workload serial|world4|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		os.Exit(1)
	}
	work, _ = filepath.Abs(work)
	o := opts{seed: *seed, budget: time.Duration(*secs) * time.Second, trace: *trace == 1, workDir: work}
	out, err := run(o)
	if rmErr := os.RemoveAll(work); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stepbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := report(*name, o, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report turns a workload outcome into the printed result: the
// end-to-end metrics for an untraced run, the per-layer metrics for a
// traced one.
func report(name string, o opts, out *outcome) result {
	res := result{
		Correct:   out.tally.failed == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   metrics{},
	}
	asc := sortedMS(out.iters)
	p50 := median(asc)
	tv, tp, beyond := tail(asc)
	var sum time.Duration
	for _, d := range out.iters {
		sum += d
	}
	setups := sortedMS(out.setups)
	fmt.Printf("workload=%s seed=%d trace=%v iterations=%d fail_frac=%.4g (%d/%d)\n",
		name, o.seed, o.trace, len(asc), out.tally.failFrac(), out.tally.failed, out.tally.attempted)
	if out.tally.firstErr != nil {
		fmt.Printf("first failure: %v\n", out.tally.firstErr)
	}
	fmt.Printf("iter_ms p50=%.3f p%d=%.3f (%d of %d samples beyond) setup_s=%.4f (median of %d)\n",
		p50, tp, tv, beyond, len(asc), median(setups)/1e3, len(setups))
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if o.trace {
		res.Metrics = out.layers
		if len(out.notMeasured) > 0 {
			fmt.Printf("not exercised by %s (reported as 0): %s\n", name, strings.Join(out.notMeasured, ", "))
		}
	} else {
		res.Metrics.set("mpoint_steps_per_s", out.pointsPerIter*float64(len(asc))/sum.Seconds()/1e6, "Mpoint-step/s")
		res.Metrics.set("iter_ms_p50", p50, "ms")
		res.Metrics.set("iter_ms_tail", tv, "ms")
		res.Metrics.set("setup_s", median(setups)/1e3, "s")
		res.Metrics.set("peak_rss_mb", out.peakRSS, "MiB")
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("metric %s is not finite\n", k)
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
		fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, m.Unit)
	}
	if len(asc) == 0 {
		res.Correct = false
	}
	return res
}
