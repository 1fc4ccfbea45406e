package resilience

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/mpi"
)

// checkLegacyDir refuses a campaign directory written by the retired
// loose-file layout (ckpt-%09d.yyck files at its root): the store
// opened there would find no checkpoint refs and silently restart the
// campaign at step 0. A missing directory is a fresh campaign.
func checkLegacyDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ok, _ := filepath.Match("ckpt-*.yyck", e.Name()); ok && !e.IsDir() {
			return fmt.Errorf("resilience: %s is a legacy loose-file checkpoint: that campaign directory layout is no longer read; resume from a new directory",
				filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// postmortemText renders a human-readable account of an exhausted
// segment — the sink persists it as a ledger-pinned store blob. The
// account ends with the campaign's fault/heartbeat event timeline —
// what dropped, who was suspected or confirmed dead, and when — so a
// failed campaign is diagnosable from this one artifact.
func postmortemText(segStart, attempts int, cause error, res *Result, events *mpi.EventLog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign post-mortem\n")
	fmt.Fprintf(&b, "failed segment start step: %d\n", segStart)
	fmt.Fprintf(&b, "attempts: %d\n", attempts)
	fmt.Fprintf(&b, "last error: %v\n", cause)
	fmt.Fprintf(&b, "committed segments: %d\n", len(res.Diags))
	fmt.Fprintf(&b, "committed dts: %v\n", res.DTs)
	if len(res.Recoveries) > 0 {
		fmt.Fprintf(&b, "recovery decisions (%d):\n", len(res.Recoveries))
		for _, d := range res.Recoveries {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	} else {
		fmt.Fprintf(&b, "recovery decisions: none\n")
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(&b, "last committed diagnostics: %+v\n", res.Diags[len(res.Diags)-1])
	}
	if n := events.Len(); n > 0 {
		fmt.Fprintf(&b, "event timeline (%d events):\n", n)
		for _, e := range events.Events() {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	} else {
		fmt.Fprintf(&b, "event timeline: empty\n")
	}
	return b.String()
}
