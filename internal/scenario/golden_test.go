package scenario

import (
	"fmt"
	"testing"

	"ccnuma/internal/stats"
)

// runSpec runs a spec without a sweep as its one cell, exactly as
// cmd/ccsim does.
func runSpec(t *testing.T, s *Spec) *stats.Run {
	t.Helper()
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("spec expands to %d cells, want 1", len(cells))
	}
	return runCell(t, cells[0])
}

// runCell runs the cell to completion.
func runCell(t *testing.T, c *Cell) *stats.Run {
	t.Helper()
	r, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenExecTimesFromSpec pins the same cycle counts as the workload
// package's golden test, but with the machine built from a scenario
// document instead of flags: the declarative path must be cycle-identical
// to the imperative one.
func TestGoldenExecTimesFromSpec(t *testing.T) {
	cases := []struct {
		app  string
		arch string
		want int64
	}{
		{"fft", "HWC", 14804},
		{"fft", "2PPC", 21476},
		{"ocean", "HWC", 33941},
		{"ocean", "2HWC", 33237},
		{"ocean", "PPC", 47083},
		{"ocean", "2PPC", 44085},
		{"ocean", "PPCA", 38168},
		{"ocean", "2PPCA", 37070},
	}
	for _, tc := range cases {
		doc := fmt.Sprintf(`{
  "schema": "ccnuma-scenario/v1",
  "machine": {"nodes": 4, "procsPerNode": 2},
  "workload": {"app": %q, "size": "test"}
}`, tc.app)
		s, err := LoadBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		s.Machine, err = s.Machine.WithArch(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(runSpec(t, s).ExecTime); got != tc.want {
			t.Errorf("%s on %s from spec: ExecTime = %d cycles, want %d — the scenario path diverged from the flag path",
				tc.app, tc.arch, got, tc.want)
		}
	}
}

// TestHeterogeneousMachineRuns exercises the Section 5 asymmetric designs:
// HWC controllers on half the nodes, PPC on the other half. The machine
// must build, run, verify, and report per-node engine statistics sized to
// each node's own controller, and the mixed machine's execution time must
// land strictly between the all-HWC and all-PPC configurations.
func TestHeterogeneousMachineRuns(t *testing.T) {
	build := func(archs []string) *Spec {
		s := Default()
		s.Machine.Nodes = 4
		s.Machine.ProcsPerNode = 2
		s.Machine.NodeArchs = archs
		s.Workload = Workload{App: "fft", Size: "test"}
		return s
	}

	hwc := runSpec(t, build(nil)).ExecTime
	mixed := build([]string{"HWC", "HWC", "PPC", "PPC"})
	mixedRun := runSpec(t, mixed)
	ppc := runSpec(t, build([]string{"PPC", "PPC", "PPC", "PPC"})).ExecTime

	if !(hwc < mixedRun.ExecTime && mixedRun.ExecTime < ppc) {
		t.Errorf("mixed machine should land between HWC and PPC: HWC=%d mixed=%d PPC=%d", hwc, mixedRun.ExecTime, ppc)
	}

	// A two-engine remote half also runs (2PPC remotes behind HWC homes,
	// the paper's natural asymmetric pairing), and its engine statistics
	// are ragged to the per-node layout: one engine on the HWC homes, two
	// on the 2PPC remotes.
	two := build([]string{"HWC", "HWC", "2PPC", "2PPC"})
	twoRun := runSpec(t, two)
	if twoRun.ExecTime <= 0 {
		t.Errorf("hetero 2PPC machine returned non-positive exec time %d", twoRun.ExecTime)
	}
	for n, want := range two.Machine.EngineCounts() {
		if got := len(twoRun.Controllers[n].Engines); got != want {
			t.Errorf("node %d engine stats sized %d, want %d", n, got, want)
		}
	}
	if twoRun.Controllers[2].Engines[1].Dispatches == 0 {
		t.Error("second engine of the 2PPC remote node never dispatched")
	}
}
