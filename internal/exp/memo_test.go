package exp

import (
	"bytes"
	"strings"
	"testing"

	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

// TestMemoSharesCellsAcrossExperiments pins memoization by cell
// fingerprint: at test size Figure 10's 2-processors-per-node column is
// the Figure 6 base machine (4 x 2, or 2 x 2 for lu and cholesky), so
// after Figure 6 it simulates none of that column again. The column it
// renders is Figure 6's own normalized times, which is what a fresh
// suite would simulate for it: simulations are deterministic, so the
// rendered figure is unchanged.
func TestMemoSharesCellsAcrossExperiments(t *testing.T) {
	var progress bytes.Buffer
	s := NewSuite(workload.SizeTest)
	s.Progress = &progress
	f6, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(progress.String(), "  ran "); n != 8*4 {
		t.Errorf("Figure 6 ran %d simulations, want 32", n)
	}
	progress.Reset()
	f10, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if n := strings.Count(out, " ppn2 "); n != 0 {
		t.Errorf("Figure 10 re-simulated %d runs of the base-width column:\n%s", n, out)
	}
	// Six apps at widths 1, 4, 8 and lu/cholesky at widths 1, 4 (their
	// total of four processors leaves no 8-wide node), four archs each.
	if n := strings.Count(out, "  ran "); n != (6*3+2*2)*4 {
		t.Errorf("Figure 10 after Figure 6 ran %d simulations, want 88", n)
	}
	for _, app := range f10.Apps {
		for _, arch := range f10.Archs {
			if got, want := f10.Series[app][2][arch], f6.Series[arch][app]; got != want {
				t.Errorf("%s/%s: Figure 10 base-width time %.6f, Figure 6 has %.6f", app, arch, got, want)
			}
		}
	}
}

// TestArtifactsReplay checks that every cctables artifact embeds its own
// cell: the embedded scenario re-simulates to the recorded exec cycles.
func TestArtifactsReplay(t *testing.T) {
	s := NewSuite(workload.SizeTest)
	s.CollectArtifacts = true
	if _, err := s.Table7(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, art := range s.Artifacts()[:4] {
		spec, err := scenario.LoadBytes(art.Scenario)
		if err != nil {
			t.Fatalf("%s/%s: embedded scenario: %v", art.App, art.Arch, err)
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		c := cells[0]
		if c.Fp != art.ScenarioFingerprint || seen[c.Fp] {
			t.Errorf("%s/%s: fingerprint %s, artifact says %s (seen before: %v)", art.App, art.Arch, c.Fp, art.ScenarioFingerprint, seen[c.Fp])
		}
		seen[c.Fp] = true
		r, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if int64(r.ExecTime) != art.Metrics.ExecCycles {
			t.Errorf("%s/%s: replay ran %d cycles, artifact recorded %d", art.App, art.Arch, r.ExecTime, art.Metrics.ExecCycles)
		}
	}
}
