// Command yycore runs the Yin-Yang geodynamo simulation: thermal
// convection of a rotating, electrically conducting compressible fluid in
// a spherical shell, with a seed magnetic field amplified by dynamo
// action (the paper's simulation, scaled to the local machine).
//
// Examples:
//
//	yycore -nr 25 -nt 25 -steps 200 -every 20
//	yycore -nr 17 -nt 17 -steps 100 -procs 8       # goroutine-parallel
//	yycore -nr 25 -nt 25 -steps 300 -slice out.ppm # equatorial T slice
//	yycore -nr 9 -nt 13 -steps 10 -campaign run1   # checkpointed campaign on the run ledger
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfcount"
	"repro/internal/resilience"
	"repro/internal/sph"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

func main() {
	var (
		nr      = flag.Int("nr", 17, "radial nodes per panel")
		nt      = flag.Int("nt", 17, "latitudinal nodes per panel (longitudinal = 3(nt-1)+1)")
		steps   = flag.Int("steps", 100, "time steps to run")
		every   = flag.Int("every", 10, "diagnostics interval in steps")
		procs   = flag.Int("procs", 0, "run decomposed over this many goroutine ranks (0 = serial)")
		slice   = flag.String("slice", "", "write an equatorial temperature slice PPM at the end")
		ckptOut = flag.String("checkpoint", "", "write a restart checkpoint at the end")
		restore = flag.String("restore", "", "restore from a checkpoint instead of initializing")
		export  = flag.String("export", "", "write a section-V visualization export at the end")
		sliceQ  = flag.String("quantity", "T", "slice quantity: T, rho, p, vr, vphi, vortz, br")
		omega   = flag.Float64("omega", mhd.Default().Omega, "rotation rate")
		tin     = flag.Float64("tin", mhd.Default().TIn, "inner-wall temperature (outer = 1)")
		mu      = flag.Float64("mu", mhd.Default().Mu, "viscosity")
		kappa   = flag.Float64("kappa", mhd.Default().Kappa, "thermal conductivity")
		eta     = flag.Float64("eta", mhd.Default().Eta, "resistivity")
		seedB   = flag.Float64("seedb", mhd.DefaultIC().SeedBAmp, "magnetic seed amplitude")
		perturb = flag.Float64("perturb", mhd.DefaultIC().PerturbAmp, "temperature perturbation amplitude")

		campaign  = flag.String("campaign", "", "run a fault-tolerant checkpointed campaign on the run-ledger store in this directory (resumes if checkpoints exist; audit with yystore)")
		runID     = flag.String("runid", "", "campaign: run name inside the store's ref namespace (default campaign)")
		ckptEvery = flag.Int("ckpt-every", 50, "campaign: steps between checkpoints")
		retries   = flag.Int("retries", 3, "campaign: retry budget per segment")
		backoff   = flag.Float64("backoff", 0.5, "campaign: dt multiplier per blow-up retry")
		deadline  = flag.Duration("deadline", 0, "campaign: per-call communication deadline (0 = none)")
		replace   = flag.Bool("replace", false, "campaign: respawn a confirmed-dead rank from the segment checkpoint instead of rolling the whole segment back")
		hbEvery   = flag.Duration("hb", 0, "campaign: heartbeat interval for silent-death detection (0 = off)")

		trace     = flag.String("trace", "", "record per-rank phase spans and write a Chrome trace_event JSON here (view in ui.perfetto.dev)")
		runreport = flag.String("runreport", "", "write a PROGINF-style run report here at the end (\"-\" = stdout)")

		teleAddr   = flag.String("telemetry", "", "serve live telemetry at this host:port (\":0\" picks a free port): /metrics, /progress, /events, /debug/pprof; watch with yywatch")
		teleFile   = flag.String("telemetry-addr-file", "", "write the bound telemetry address to this file (scripts scraping a :0 server)")
		linger     = flag.Duration("linger", 0, "keep the telemetry server up this long after the run finishes")
		killSilent = flag.String("inject-kill-silent", "", "campaign: script a silent rank death as rank@step (fault-injection testing; pair with -hb/-replace)")
	)
	flag.Parse()

	prm := mhd.Default()
	prm.Omega = *omega
	prm.TIn = *tin
	prm.Mu = *mu
	prm.Kappa = *kappa
	prm.Eta = *eta
	ic := mhd.DefaultIC()
	ic.SeedBAmp = *seedB
	ic.PerturbAmp = *perturb
	cfg := core.Config{Nr: *nr, Nt: *nt, Params: &prm, IC: &ic}

	// Observability: one recorder and one event log for whichever run
	// mode executes below; exported at the end by writeObs.
	var rec *obs.Recorder
	var events *mpi.EventLog
	perf0 := perfcount.Read()
	if *trace != "" || *runreport != "" || *teleAddr != "" {
		rec = obs.New(obs.Config{})
		events = mpi.NewEventLog()
		cfg.Obs = rec
	}

	// Live telemetry: serve the pull-based plane for the whole run. The
	// plane reads shared memory the ranks publish into lock-free slots;
	// scraping it never perturbs the physics.
	var plane *telemetry.Plane
	if *teleAddr != "" {
		plane = telemetry.New(telemetry.Config{})
		addr, err := plane.Serve(*teleAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("telemetry: serving http://%s (metrics, progress, events, debug/pprof)\n", addr)
		if *teleFile != "" {
			if err := store.WriteFileAtomic(*teleFile, []byte(addr+"\n"), 0o644); err != nil {
				fail(err)
			}
		}
		cfg.Telemetry = plane
		defer func() {
			if *linger > 0 {
				fmt.Printf("telemetry: lingering %s for late scrapes\n", *linger)
				time.Sleep(*linger)
			}
			plane.Close()
		}()
	}

	if *campaign != "" {
		np := *procs
		if np == 0 {
			np = 2
		}
		fmt.Printf("campaign: %d steps on %d ranks, checkpoint every %d steps in %s\n",
			*steps, np, *ckptEvery, *campaign)
		rcfg := resilience.Config{
			Core:            cfg,
			NProcs:          np,
			Steps:           *steps,
			CheckpointEvery: *ckptEvery,
			Dir:             *campaign,
			RunID:           *runID,
			MaxRetries:      *retries,
			Backoff:         *backoff,
			Deadline:        *deadline,
			Obs:             rec,
			Events:          events,
			Telemetry:       plane,
		}
		if *killSilent != "" {
			rank, step, err := parseRankStep(*killSilent)
			if err != nil {
				fail(err)
			}
			rcfg.Faults = mpi.NewFaultPlan().KillSilent(rank, step)
			fmt.Printf("fault injection: silent death of rank %d at step %d\n", rank, step)
		}
		if *hbEvery > 0 {
			rcfg.Heartbeat = &mpi.Heartbeat{Interval: *hbEvery}
		}
		if *replace {
			rcfg.Replace = &mpi.Elastic{}
		}
		res, err := resilience.RunCampaign(rcfg)
		if res != nil {
			if res.Resumed {
				fmt.Printf("resumed from checkpoint at step %d\n", res.StartStep)
			}
			for i, d := range res.Diags {
				fmt.Printf("%s dt=%.4g\n", d, res.DTs[i])
			}
			if res.Retries > 0 {
				fmt.Printf("recovered from %d failed segment attempt(s)\n", res.Retries)
			}
			for _, rd := range res.Recoveries {
				fmt.Printf("recovery: %s\n", rd)
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("campaign complete at step %d\n", res.FinalStep)
		// Reopen the campaign's store to pin the trace and report next
		// to its checkpoints.
		backend, err := store.NewDirBackend(*campaign)
		if err != nil {
			fail(err)
		}
		st, err := store.Open(backend)
		if err != nil {
			fail(err)
		}
		writeObs(*trace, *runreport, rec, events, perf0, plane, st, *runID, res.FinalStep)
		return
	}

	if *procs > 0 {
		fmt.Printf("running %d steps on %d goroutine ranks (2 panels x 2-D grid)\n", *steps, *procs)
		plane.Attach(telemetry.Campaign{Run: "yycore", TotalSteps: *steps, Events: events, Recorder: rec})
		hist, err := core.RunParallel(cfg, *procs, *steps, *every, 0)
		if err != nil {
			fail(err)
		}
		plane.Finish(*steps)
		for _, d := range hist {
			fmt.Println(d)
		}
		writeObs(*trace, *runreport, rec, events, perf0, plane, nil, "", *steps)
		return
	}

	var sim *core.Simulation
	var err error
	if *restore != "" {
		f, ferr := os.Open(*restore)
		if ferr != nil {
			fail(ferr)
		}
		sim, err = core.Restore(f)
		f.Close()
		if err == nil {
			fmt.Printf("restored checkpoint at t=%.5f step=%d\n", sim.Time(), sim.Solver.Step)
		}
	} else {
		sim, err = core.New(cfg)
	}
	if err != nil {
		fail(err)
	}
	spec := sim.Solver.Spec
	runPrm := sim.Solver.Prm
	fmt.Printf("yycore: grid %d x %d x %d x 2 = %d points, Ra~%.3g, Ekman~%.3g\n",
		spec.Nr, spec.Nt, spec.Np, spec.TotalPoints(),
		runPrm.RayleighEstimate(spec.RO-spec.RI), runPrm.Ekman(spec.RO-spec.RI))
	fmt.Println(sim.Diagnostics())
	plane.Attach(telemetry.Campaign{Run: "yycore", TotalSteps: *steps, Events: events, Recorder: rec})
	for done := 0; done < *steps; done += *every {
		n := *every
		if *steps-done < n {
			n = *steps - done
		}
		if err := sim.Step(n); err != nil {
			fail(err)
		}
		plane.Commit(done + n)
		d := sim.Diagnostics()
		m := sph.MagneticMoment(sim.Solver)
		fmt.Printf("%s dipole=%.4g\n", d, sph.MomentMagnitude(m))
	}
	plane.Finish(*steps)

	if *ckptOut != "" {
		f, err := os.Create(*ckptOut)
		if err != nil {
			fail(err)
		}
		if err := sim.WriteCheckpoint(f); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("wrote checkpoint %s\n", *ckptOut)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fail(err)
		}
		if err := sim.ExportViz(f, 2); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("wrote viz export %s\n", *export)
	}
	if *slice != "" {
		q := map[string]viz.Quantity{
			"T": viz.Temperature, "rho": viz.Density, "p": viz.Pressure,
			"vr": viz.VRadial, "vphi": viz.VPhi, "vortz": viz.VortZ, "br": viz.BRadial,
		}[*sliceQ]
		f, err := os.Create(*slice)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := sim.WriteEquatorialPPM(f, q, 256); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *slice)
	}
	sim.Close()
	writeObs(*trace, *runreport, rec, events, perf0, plane, nil, "", *steps)
}

// parseRankStep parses a "rank@step" fault-injection site.
func parseRankStep(s string) (rank, step int, err error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("yycore: fault site %q is not rank@step", s)
	}
	rank, err = strconv.Atoi(s[:at])
	if err == nil {
		step, err = strconv.Atoi(s[at+1:])
	}
	if err != nil || rank < 0 || step < 0 {
		return 0, 0, fmt.Errorf("yycore: fault site %q is not rank@step", s)
	}
	return rank, step, nil
}

// writeObs exports the run's observability products: the Perfetto trace
// (with the event log merged as instants) and/or the PROGINF-style run
// report (with the telemetry plane's latched alerts in its health
// header). A nil recorder means none of the obs flags were set. When
// the run committed to a store, the trace and report are additionally
// rendered (even without their file flags) and pinned into the run's
// ledger next to the checkpoints, so `yystore ls` shows them and gc
// protects them.
func writeObs(tracePath, reportPath string, rec *obs.Recorder, events *mpi.EventLog, perf0 perfcount.Snapshot, plane *telemetry.Plane, st *store.Store, runID string, step int) {
	if rec == nil {
		return
	}
	commit := st != nil
	var arts []resilience.Artifact
	if tracePath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteTrace(&buf, rec, events); err != nil {
			fail(err)
		}
		if tracePath != "" {
			if err := store.WriteFileAtomic(tracePath, buf.Bytes(), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote trace %s (open in https://ui.perfetto.dev)\n", tracePath)
		}
		arts = append(arts, resilience.Artifact{Name: "trace.json", Role: "trace", Data: buf.Bytes()})
	}
	if reportPath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteRunReport(&buf, rec, perfcount.Read().Sub(perf0), events, plane.AlertStrings()); err != nil {
			fail(err)
		}
		switch reportPath {
		case "":
		case "-":
			io.Copy(os.Stdout, bytes.NewReader(buf.Bytes())) //nolint:errcheck
		default:
			if err := store.WriteFileAtomic(reportPath, buf.Bytes(), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote run report %s\n", reportPath)
		}
		arts = append(arts, resilience.Artifact{Name: "report.txt", Role: "report", Data: buf.Bytes()})
	}
	if commit && len(arts) > 0 {
		if err := resilience.CommitArtifacts(st, runID, step, "run-artifacts", arts); err != nil {
			fmt.Fprintln(os.Stderr, "yycore: committing run artifacts:", err)
			return
		}
		fmt.Printf("committed %d run artifact(s) into the store ledger\n", len(arts))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "yycore:", err)
	os.Exit(1)
}
