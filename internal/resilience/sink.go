package resilience

// The checkpoint sink is a campaign's one persistence path: a
// content-addressed store with a Merkle-chained ledger
// (internal/store). Checkpoints are blobs keyed by their sha256, so
// bit-identical reruns share one object; mutable refs
// runs/<run>/ckpt-%09d name the resume candidates; and every commit
// appends a ledger manifest recording the artifact hashes, the recovery
// decisions taken and an event-log digest, so a campaign's whole
// recovery history is verifiable offline with `yystore verify`.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// segMeta is the provenance a commit carries into the ledger.
type segMeta struct {
	// note labels the commit ("origin", "segment").
	note string
	// recoveries are the recovery decisions taken since the previous
	// commit, rendered.
	recoveries []string
	// events is the campaign event log at commit time; the sink
	// digests it.
	events *mpi.EventLog
}

// runArtifact is one auxiliary blob a campaign commits beside its
// checkpoints: a segment CPU/heap profile, a Chrome trace, a run
// report.
type runArtifact struct {
	// name is the artifact's file/ref name; role classifies it in the
	// ledger ("profile.cpu", "profile.heap", "trace", "report").
	name, role string
	data       []byte
}

// Artifact is one post-run artifact for CommitArtifacts.
type Artifact struct {
	// Name is the artifact's ref name inside the run's namespace; Role
	// classifies it in the ledger manifest ("trace", "report").
	Name, Role string
	Data       []byte
}

// CommitArtifacts pins post-run artifacts — the Chrome trace and the
// run report a driver renders after the campaign — into the campaign
// run's store ledger, so `yystore ls` shows them next to the
// checkpoints and gc keeps them reachable. An empty runID selects the
// default campaign namespace.
func CommitArtifacts(st *store.Store, runID string, step int, note string, arts []Artifact) error {
	if st == nil {
		return fmt.Errorf("resilience: CommitArtifacts needs a store")
	}
	if runID == "" {
		runID = defaultRunID
	}
	s := &storeSink{st: st, run: runID}
	ra := make([]runArtifact, 0, len(arts))
	for _, a := range arts {
		ra = append(ra, runArtifact{name: a.Name, role: a.Role, data: a.Data})
	}
	return s.artifacts(step, note, ra)
}

// sink opens the campaign's ledger: Config.Store when set, otherwise a
// filesystem store rooted at Config.Dir.
func (c Config) sink() (*storeSink, error) {
	st := c.Store
	if st == nil {
		if err := checkLegacyDir(c.Dir); err != nil {
			return nil, err
		}
		b, err := store.NewDirBackend(c.Dir)
		if err != nil {
			return nil, err
		}
		if st, err = store.Open(b); err != nil {
			return nil, err
		}
	}
	return &storeSink{st: st, run: c.RunID}, nil
}

// storeSink is the campaign's view of its store: checkpoint blobs,
// mutable refs runs/<run>/ckpt-%09d pointing at them, and one
// Merkle-chained ledger entry per commit.
type storeSink struct {
	st  *store.Store
	run string
	// committed counts ledger entries this campaign appended (Note
	// context only; the chain itself lives in the store).
	committed int
}

func (s *storeSink) refName(step int) string {
	return fmt.Sprintf("runs/%s/ckpt-%09d", s.run, step)
}

// refStep parses the step out of a checkpoint ref name.
func (s *storeSink) refStep(name string) (int, bool) {
	i := strings.LastIndex(name, "/ckpt-")
	if i < 0 {
		return 0, false
	}
	step, err := strconv.Atoi(name[i+len("/ckpt-"):])
	if err != nil || step < 0 {
		return 0, false
	}
	return step, true
}

// sweep removes orphaned temp files left by a crashed writer and
// returns their names.
func (s *storeSink) sweep() ([]string, error) {
	return s.st.Sweep()
}

// ckptSteps lists the run's checkpoint steps ascending, from its refs.
// Only the ckpt- refs are read: the run's profile refs accumulate with
// every committed segment and are never pruned.
func (s *storeSink) ckptSteps() ([]int, error) {
	refs, err := s.st.Refs("runs/" + s.run + "/ckpt-")
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, r := range refs {
		if step, ok := s.refStep(r.Name); ok {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// newest restores the newest checkpoint that reads back valid. A
// corrupt, missing or undecodable checkpoint is skipped (the store's
// typed errors land in skipped) and the scan falls back to the
// next-newest — a bit-rotted newest checkpoint must not strand a
// resumable campaign. A checkpoint that reads back fine but holds a
// different grid is a hard error, not a skip: silently resuming an
// older same-resolution checkpoint would fork the trajectory.
// (nil, skipped, nil) means a fresh campaign.
func (s *storeSink) newest(spec grid.Spec) (*mhd.Solver, []string, error) {
	steps, err := s.ckptSteps()
	if err != nil {
		return nil, nil, err
	}
	var skipped []string
	for i := len(steps) - 1; i >= 0; i-- {
		name := s.refName(steps[i])
		sv, err := s.readCkpt(steps[i])
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if sv.Spec != spec {
			return nil, skipped, fmt.Errorf("resilience: checkpoint %s holds grid %dx%dx%d, campaign wants %dx%dx%d — wrong run id, wrong directory or reconfigured resolution",
				name, sv.Spec.Nr, sv.Spec.Nt, sv.Spec.Np, spec.Nr, spec.Nt, spec.Np)
		}
		return sv, skipped, nil
	}
	return nil, skipped, nil
}

func (s *storeSink) readCkpt(step int) (*mhd.Solver, error) {
	h, err := s.st.Ref(s.refName(step))
	if err != nil {
		return nil, err
	}
	data, err := s.st.Get(h)
	if err != nil {
		return nil, err
	}
	return snapshot.ReadCheckpoint(bytes.NewReader(data))
}

// write durably commits a checkpoint of sv and its ledger manifest.
func (s *storeSink) write(sv *mhd.Solver, meta segMeta) error {
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, sv); err != nil {
		return fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	data := buf.Bytes()
	h, err := s.st.Put(data)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("ckpt-%09d", sv.Step)
	if err := s.st.SetRef(s.refName(sv.Step), h); err != nil {
		return err
	}
	m := store.Manifest{
		Run:  s.run,
		Step: sv.Step,
		Note: meta.note,
		Artifacts: []store.Artifact{
			{Name: name, Role: "checkpoint", Hash: h, Size: int64(len(data))},
		},
		Recoveries: meta.recoveries,
	}
	if meta.events != nil {
		m.EventDigest = digestEvents(meta.events)
	}
	if _, err := s.st.Append(m); err != nil {
		return err
	}
	s.committed++
	return nil
}

// segment loads the checkpoint committed at exactly the given step, in
// layout-neutral form (the rank-replacement reload path).
func (s *storeSink) segment(step int) (*snapshot.Interior, error) {
	h, err := s.st.Ref(s.refName(step))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("resilience: no checkpoint ref at step %d: %w", step, err)
		}
		return nil, err
	}
	data, err := s.st.Get(h)
	if err != nil {
		return nil, err
	}
	in, err := snapshot.ReadInterior(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", s.refName(step), err)
	}
	return in, nil
}

// prune deletes all but the newest keep checkpoint *refs*. The blobs
// stay: each is pinned by the ledger entry that committed it (and may
// be shared with other runs), so gc keeps it while the ledger does.
func (s *storeSink) prune(keep int) error {
	steps, err := s.ckptSteps()
	if err != nil {
		return err
	}
	for len(steps) > keep {
		if err := s.st.DelRef(s.refName(steps[0])); err != nil {
			return err
		}
		steps = steps[1:]
	}
	return nil
}

// postmortem durably saves the failure account under
// runs/<run>/postmortem and returns its location ("" if even that
// failed).
func (s *storeSink) postmortem(text string) string {
	h, err := s.st.Put([]byte(text))
	if err != nil {
		return ""
	}
	ref := "runs/" + s.run + "/postmortem"
	if err := s.st.SetRef(ref, h); err != nil {
		return ""
	}
	// The failure account is itself ledger-pinned: an aborted campaign
	// leaves a verifiable record of why.
	if _, err := s.st.Append(store.Manifest{
		Run: s.run, Note: "postmortem",
		Artifacts: []store.Artifact{{Name: "postmortem", Role: "postmortem", Hash: h, Size: int64(len(text))}},
	}); err != nil {
		return ""
	}
	return "store:" + ref
}

// artifacts puts every blob, points a run-namespaced ref at each (so
// `yystore ls` shows them and gc marks them live), and pins the whole
// batch with one ledger manifest.
func (s *storeSink) artifacts(step int, note string, arts []runArtifact) error {
	if len(arts) == 0 {
		return nil
	}
	m := store.Manifest{Run: s.run, Step: step, Note: note}
	for _, a := range arts {
		h, err := s.st.Put(a.data)
		if err != nil {
			return err
		}
		if err := s.st.SetRef("runs/"+s.run+"/"+a.name, h); err != nil {
			return err
		}
		m.Artifacts = append(m.Artifacts, store.Artifact{
			Name: a.name, Role: a.role, Hash: h, Size: int64(len(a.data)),
		})
	}
	if _, err := s.st.Append(m); err != nil {
		return err
	}
	return nil
}

// digestEvents hashes the rendered event timeline, so the ledger pins
// which fault history led to each commit without storing the log.
func digestEvents(events *mpi.EventLog) store.Hash {
	var b strings.Builder
	for _, e := range events.Events() {
		fmt.Fprintf(&b, "%s\n", e)
	}
	return store.HashOf([]byte(b.String()))
}
