// Package exp reproduces every table and figure of the paper's evaluation
// section. Each experiment has a typed result plus a text renderer that
// prints the same rows/series the paper reports; cmd/cctables drives them
// all. Runs are scenario cells, memoized inside a Suite by fingerprint, so
// the statistics tables reuse the Figure 6 base runs, exactly as the paper
// derives Tables 6 and 7 from the base-configuration simulations.
package exp

import (
	"fmt"
	"io"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// Suite runs experiments at a given problem-size class, memoizing
// simulation results by scenario-cell fingerprint: requests that resolve to
// the same experiment (Figure 10's base-width column and Figure 6's base
// runs, say) simulate once.
type Suite struct {
	// Size selects the workload problem sizes (SizeTest shrinks both the
	// data sets and the machine for quick smoke runs and benchmarks).
	Size workload.SizeClass
	// Progress, when non-nil, receives one line per completed simulation.
	Progress io.Writer
	// CollectArtifacts, when true, retains one machine-readable run
	// artifact per unique simulation (memoized reruns do not duplicate).
	CollectArtifacts bool
	// Jobs bounds how many of an experiment's simulations run at once
	// (<= 0 means GOMAXPROCS). Progress lines, memo contents, artifact
	// order, errors and every rendered result are identical for any
	// value: scenario.RunCells hands the runs back in the experiment's
	// request order. Jobs == 1 is the plain serial loop, with no
	// goroutines at all.
	Jobs int

	cache     map[string]*stats.Run // by cell fingerprint
	artifacts []*obs.Artifact
}

// Artifacts returns the run documents collected so far, in simulation order.
func (s *Suite) Artifacts() []*obs.Artifact { return s.artifacts }

// NewSuite creates a suite at the given size class. The suite runs
// simulations serially unless Jobs is set.
func NewSuite(size workload.SizeClass) *Suite {
	return &Suite{Size: size, Jobs: 1, cache: make(map[string]*stats.Run)}
}

// geometry returns the machine shape for an application: the paper's base
// system is 16 nodes x 4 processors, with LU and Cholesky run on 8 x 4
// (32 processors) because they do not scale to 64 at these data sizes. At
// SizeTest everything shrinks to 4 x 2 (2 x 2 for lu/cholesky).
func (s *Suite) geometry(app string) (nodes, ppn int) {
	small := app == "lu" || app == "cholesky"
	if s.Size == workload.SizeTest {
		if small {
			return 2, 2
		}
		return 4, 2
	}
	if small {
		return 8, 4
	}
	return 16, 4
}

// machine returns the paper's base machine in the suite geometry for app,
// under the suite's watchdog horizon.
func (s *Suite) machine(app string) config.Config {
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = s.geometry(app)
	cfg.SimLimit = 20_000_000_000
	return cfg
}

// baseSize is the problem size of the studies that always run base data
// (test data in a SizeTest suite).
func (s *Suite) baseSize() workload.SizeClass {
	if s.Size == workload.SizeTest {
		return workload.SizeTest
	}
	return workload.SizeBase
}

// variant is one experiment's change to the base configuration.
type variant struct {
	name string
	// size is the problem size (0 = the suite's); a SizeTest suite runs
	// every variant at test size.
	size workload.SizeClass
	// param and value set one scenario.ApplySweepValue axis ("" = none).
	param string
	value int
	// edit, when non-nil, makes a change no sweep axis names.
	edit func(*config.Config)
	// quiet runs write no progress line.
	quiet bool
}

// base returns the base-configuration variant.
func base() variant { return variant{name: "base"} }

// runReq is one simulation request: the cell to run and the labels its
// progress line and errors carry, or the error that kept it from
// resolving to a cell.
type runReq struct {
	cell            *scenario.Cell
	app, arch, name string
	quiet           bool
	err             error
}

func (q runReq) String() string { return fmt.Sprintf("%s/%s (%s)", q.app, q.arch, q.name) }

// req resolves app on arch under variant v: the suite's machine for app,
// then v's sweep value and edit, at v's problem size.
func (s *Suite) req(app, arch string, v variant) runReq {
	q := runReq{app: app, arch: arch, name: v.name, quiet: v.quiet}
	cfg, err := s.machine(app).WithArch(arch)
	if err == nil && v.param != "" {
		err = scenario.ApplySweepValue(&cfg, v.param, v.value)
	}
	if err == nil {
		if v.edit != nil {
			v.edit(&cfg)
		}
		size := s.Size
		if v.size != 0 && s.Size != workload.SizeTest {
			size = v.size
		}
		q.cell, err = scenario.NewCell(cfg, scenario.Workload{App: app, Size: size.String()})
	}
	if err != nil {
		q.err = fmt.Errorf("%s: %w", q, err)
	}
	return q
}

// plan is one experiment's simulations in the order they run, each
// request listed once, together with the code that reads its run.
type plan []step

type step struct {
	req runReq
	use func(*stats.Run)
}

func (p *plan) add(q runReq, use func(*stats.Run)) { *p = append(*p, step{q, use}) }

// pair lists two requests and hands both runs to use.
func (p *plan) pair(a, b runReq, use func(a, b *stats.Run)) {
	var first *stats.Run
	p.add(a, func(r *stats.Run) { first = r })
	p.add(b, func(r *stats.Run) { use(first, r) })
}

// runs simulates a plan and hands every request's run to its use, in plan
// order. Cells already memoized are not simulated again; the rest go
// through scenario.RunCells, and their progress lines, memo entries and
// artifacts are committed in plan order. The error names the first
// request that failed to resolve or to simulate, and nothing is used then.
func (s *Suite) runs(p plan) error {
	var todo []runReq
	var cells []*scenario.Cell
	queued := map[string]bool{}
	for _, st := range p {
		q := st.req
		if q.err != nil {
			return q.err
		}
		if _, ok := s.cache[q.cell.Fp]; !ok && !queued[q.cell.Fp] {
			queued[q.cell.Fp] = true
			todo = append(todo, q)
			cells = append(cells, q.cell)
		}
	}
	ran := 0
	if err := scenario.RunCells(s.Jobs, cells, func(i int, r *stats.Run) {
		q := todo[i]
		if !q.quiet && s.Progress != nil {
			fmt.Fprintf(s.Progress, "  ran %-10s %-5s %-12s exec=%-12d 1000*RCCPI=%.2f\n",
				q.app, q.arch, q.name, r.ExecTime, 1000*r.RCCPI())
		}
		s.cache[q.cell.Fp] = r
		if s.CollectArtifacts {
			s.artifacts = append(s.artifacts, q.cell.Artifact("cctables", r))
		}
		ran++
	}); err != nil {
		return fmt.Errorf("%s: %w", todo[ran], err)
	}
	for _, st := range p {
		st.use(s.cache[st.req.cell.Fp])
	}
	return nil
}

// AppLabel maps internal names to the paper's display names.
func AppLabel(app string) string {
	switch app {
	case "lu":
		return "LU"
	case "water-sp":
		return "Water-Sp"
	case "barnes":
		return "Barnes"
	case "cholesky":
		return "Cholesky"
	case "water-nsq":
		return "Water-Nsq"
	case "fft":
		return "FFT"
	case "radix":
		return "Radix"
	case "ocean":
		return "Ocean"
	default:
		return app
	}
}

// renderTable formats rows of columns with a header, padding columns.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
