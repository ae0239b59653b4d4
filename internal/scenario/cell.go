package scenario

import (
	"context"
	"errors"
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/runner"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// MaxSweepCells bounds a sweep grid: Validate rejects a sweep whose
// len(values) × len(archs) exceeds it, before any cell is built, so a
// small document cannot demand an unbounded expansion.
const MaxSweepCells = 4096

// Cell is one fully resolved simulation — a machine and a workload — and
// the unit every per-run tool works in. Its scenario is normalized: no
// name, sweep, fault, or jobs section, so the fingerprint depends on
// nothing but the experiment itself, and the same experiment reached
// through differently written documents (spelled-out defaults, other
// names, overlapping sweeps) is the same cell.
type Cell struct {
	// Arch and Value locate the cell in its sweep grid (HasValue false
	// for a spec without a sweep).
	Arch     string
	Value    int
	HasValue bool
	// Spec is the normalized scenario, Canon its canonical serialization,
	// and Fp its fingerprint: what the cell's artifact embeds and what
	// memoized results are keyed by.
	Spec  *Spec
	Canon []byte
	Fp    string
}

// NewCell normalizes one machine+workload pair into a validated cell.
func NewCell(cfg config.Config, w Workload) (*Cell, error) {
	cs := &Spec{SchemaName: Schema, Machine: cfg, Workload: w}
	canon, err := cs.Canonical()
	if err != nil {
		return nil, err
	}
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Cell{Spec: cs, Canon: canon, Fp: fp}, nil
}

// Cells validates the spec and expands it into its cells: one for a spec
// without a sweep, else one per grid point, value-major (the first
// architecture of each value group is that group's penalty baseline).
// Fault plans and jobs do not shape a cell and are dropped.
func (s *Spec) Cells() ([]*Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sw := s.Sweep
	if sw == nil {
		c, err := NewCell(s.Machine, s.Workload)
		if err != nil {
			return nil, err
		}
		return []*Cell{c}, nil
	}
	cells := make([]*Cell, 0, len(sw.Values)*len(sw.Archs))
	for _, v := range sw.Values {
		for _, arch := range sw.Archs {
			cfg, err := s.Machine.WithArch(arch)
			if err == nil {
				err = ApplySweepValue(&cfg, sw.Param, v)
			}
			var c *Cell
			if err == nil {
				c, err = NewCell(cfg, s.Workload)
			}
			if err != nil {
				return nil, fmt.Errorf("scenario: cell value=%d arch=%s: %w", v, arch, err)
			}
			c.Arch, c.Value, c.HasValue = arch, v, true
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// NewWorkload builds the cell's seeded workload for a machine of nprocs
// processors.
func (c *Cell) NewWorkload(nprocs int) (workload.Workload, error) {
	size, err := c.Spec.Size()
	if err != nil {
		return nil, err
	}
	return workload.NewSeeded(c.Spec.Workload.App, size, nprocs, c.Spec.Workload.Seed)
}

// Run simulates the cell: it builds the machine and the seeded workload
// and runs them to completion through workload.Run.
func (c *Cell) Run() (*stats.Run, error) {
	m, err := machine.New(c.Spec.Machine, c.Spec.Workload.App)
	if err != nil {
		return nil, err
	}
	w, err := c.NewWorkload(m.NProcs())
	if err != nil {
		return nil, err
	}
	return workload.Run(m, w)
}

// RunCells simulates cells on up to jobs workers (<= 0 means GOMAXPROCS)
// and hands each run to done in cell order, on the calling goroutine, so
// what done writes is the same for any jobs; jobs 1 is the plain serial
// loop. It returns the error of the first cell that fails, after done
// has seen exactly the cells before it.
func RunCells(jobs int, cells []*Cell, done func(int, *stats.Run)) error {
	_, err := runner.MapStream(context.Background(), jobs, len(cells),
		func(i int) (*stats.Run, error) { return cells[i].Run() }, done)
	var je *runner.JobError
	if errors.As(err, &je) {
		return je.Err
	}
	return err
}

// Artifact builds the ccnuma-run/v1 document of the cell's finished run:
// obs.NewArtifact plus the cell's own scenario, fingerprint, and seed, and
// the recovery section when the machine is robust. The embedded scenario
// is the cell itself, so `ccsim -replay` on any per-run artifact re-runs
// exactly that run.
func (c *Cell) Artifact(tool string, r *stats.Run) *obs.Artifact {
	cfg := &c.Spec.Machine
	a := obs.NewArtifact(tool, c.Spec.Workload.Size, cfg, r)
	a.Seed = c.Spec.Workload.Seed
	a.Scenario = c.Canon
	a.ScenarioFingerprint = c.Fp
	if cfg.Robust {
		a.Recovery = obs.NewRecoveryDoc(r, nil)
	}
	return a
}
