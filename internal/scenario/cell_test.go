package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ccnuma/internal/stats"
)

const sweepDoc = `{
 "schema": "ccnuma-scenario/v1",
 "name": "cells-sweep",
 "machine": {"nodes": 4, "procsPerNode": 2},
 "workload": {"app": "fft", "size": "test"},
 "sweep": {"param": "netlat", "values": [14, 50], "archs": ["HWC", "PPC"]},
 "jobs": 3
}`

func mustLoad(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := LoadBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCells(t *testing.T, s *Spec) []*Cell {
	t.Helper()
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestCellsExpandValueMajor pins the grid order (the first architecture of
// each value group is the penalty baseline) and that each cell carries its
// grid point's machine.
func TestCellsExpandValueMajor(t *testing.T) {
	cells := mustCells(t, mustLoad(t, sweepDoc))
	want := []struct {
		value int
		arch  string
	}{{14, "HWC"}, {14, "PPC"}, {50, "HWC"}, {50, "PPC"}}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, w := range want {
		c := cells[i]
		if !c.HasValue || c.Value != w.value || c.Arch != w.arch {
			t.Errorf("cell %d at value=%d arch=%s (has=%v), want value=%d arch=%s", i, c.Value, c.Arch, c.HasValue, w.value, w.arch)
		}
		if int(c.Spec.Machine.NetLatency) != w.value || c.Spec.Machine.ArchName() != w.arch {
			t.Errorf("cell %d machine netlat=%d arch=%s, want %d %s", i, c.Spec.Machine.NetLatency, c.Spec.Machine.ArchName(), w.value, w.arch)
		}
	}

	// A spec without a sweep is exactly one cell, off the grid.
	single := mustLoad(t, sweepDoc)
	single.Sweep = nil
	if got := mustCells(t, single); len(got) != 1 || got[0].HasValue {
		t.Errorf("spec without a sweep: %d cells (first HasValue=%v), want one off-grid cell", len(got), got[0].HasValue)
	}
}

// TestCellsNormalize checks that a cell keeps only machine and workload:
// name, sweep, faults, and jobs are dropped, the canonical bytes and
// fingerprint are the normalized spec's own, and every cell of a grid is a
// distinct experiment.
func TestCellsNormalize(t *testing.T) {
	s := mustLoad(t, sweepDoc)
	s.Faults = &FaultPlan{Schedules: 3, BaseSeed: 1}
	seen := map[string]bool{}
	for _, c := range mustCells(t, s) {
		if c.Spec.Name != "" || c.Spec.Sweep != nil || c.Spec.Faults != nil || c.Spec.Jobs != 0 {
			t.Errorf("cell %s kept a non-experiment section: %+v", c.Fp, c.Spec)
		}
		canon, err := c.Spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := c.Spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, c.Canon) || fp != c.Fp {
			t.Errorf("cell %s: stored canonical form or fingerprint is not the spec's own", c.Fp)
		}
		for _, key := range []string{`"name"`, `"sweep"`, `"faults"`, `"jobs"`} {
			if strings.Contains(string(c.Canon), key) {
				t.Errorf("cell %s canonical bytes contain %s", c.Fp, key)
			}
		}
		if seen[c.Fp] {
			t.Errorf("duplicate cell fingerprint %s", c.Fp)
		}
		seen[c.Fp] = true
	}
}

// TestCellsSameExperimentSameFingerprint reaches one experiment through
// differently written documents — other names, spelled-out defaults, a
// single run versus one point of a sweep — and requires one fingerprint.
func TestCellsSameExperimentSameFingerprint(t *testing.T) {
	grid := mustCells(t, mustLoad(t, sweepDoc))
	docs := []string{
		`{"schema": "ccnuma-scenario/v1", "name": "a",
		  "machine": {"nodes": 4, "procsPerNode": 2, "netLatency": 50},
		  "workload": {"app": "fft", "size": "test"}}`,
		`{"schema": "ccnuma-scenario/v1", "name": "another name", "jobs": 2,
		  "workload": {"size": "test", "app": "fft", "seed": 0},
		  "machine": {"procsPerNode": 2, "netLatency": 50, "nodes": 4, "engine": "HWC"}}`,
	}
	for i, doc := range docs {
		cells := mustCells(t, mustLoad(t, doc))
		if cells[0].Fp != grid[2].Fp {
			t.Errorf("document %d: fingerprint %s, want the sweep's value=50 HWC cell %s", i, cells[0].Fp, grid[2].Fp)
		}
	}
}

// TestSweepCellsReplay is the per-run replay contract of a sweep: each
// artifact of a 2x2 grid embeds its own cell, with its own fingerprint,
// and that embedded scenario re-simulates to the artifact's exec cycles.
func TestSweepCellsReplay(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range mustCells(t, mustLoad(t, sweepDoc)) {
		art := c.Artifact("ccsweep", runCell(t, c))
		if seen[art.ScenarioFingerprint] {
			t.Errorf("artifact fingerprint %s repeats across the grid", art.ScenarioFingerprint)
		}
		seen[art.ScenarioFingerprint] = true
		replayed := runSpec(t, mustLoad(t, string(art.Scenario)))
		if int64(replayed.ExecTime) != art.Metrics.ExecCycles {
			t.Errorf("value=%d arch=%s: replay ran %d cycles, artifact recorded %d",
				c.Value, c.Arch, replayed.ExecTime, art.Metrics.ExecCycles)
		}
	}
	if len(seen) != 4 {
		t.Errorf("%d distinct artifact fingerprints, want 4", len(seen))
	}
}

// TestRunCellsInOrderToFirstFailure runs a grid whose third cell cannot
// finish inside its time limit, serially and on two workers: done sees
// exactly the two cells before it, in order, and the error is the cell's
// own, without the runner's job wrapper.
func TestRunCellsInOrderToFirstFailure(t *testing.T) {
	cells := mustCells(t, mustLoad(t, sweepDoc))
	short := cells[2].Spec.Machine
	short.SimLimit = 1000
	bad, err := NewCell(short, cells[2].Spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cells[2] = bad
	for _, jobs := range []int{1, 2} {
		var seen []int
		err := RunCells(jobs, cells, func(i int, _ *stats.Run) { seen = append(seen, i) })
		if err == nil || !strings.HasPrefix(err.Error(), "machine: time limit 1000 exceeded") {
			t.Errorf("jobs=%d: err = %v, want the cell's time-limit error", jobs, err)
		}
		if !reflect.DeepEqual(seen, []int{0, 1}) {
			t.Errorf("jobs=%d: done saw cells %v, want [0 1]", jobs, seen)
		}
	}
}
