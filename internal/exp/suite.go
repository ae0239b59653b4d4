// Package exp reproduces every table and figure of the paper's evaluation
// section. Each experiment has a typed result plus a text renderer that
// prints the same rows/series the paper reports; cmd/cctables drives them
// all. Runs are scenario cells, memoized inside a Suite by fingerprint, so
// the statistics tables reuse the Figure 6 base runs, exactly as the paper
// derives Tables 6 and 7 from the base-configuration simulations.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/runner"
	"ccnuma/internal/scenario"
	"ccnuma/internal/sim"
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
	// Jobs bounds how many simulations run concurrently when an experiment
	// prefetches its runs (<= 0 means GOMAXPROCS). Progress lines, memo
	// cache contents, artifact order, and every rendered result are
	// identical for any value: each simulation is self-contained, and
	// results are always committed in the serial loop's order. Jobs == 1
	// executes the plain serial loop with no goroutines at all.
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

// variant captures the parameter deltas of the non-base experiments.
type variant struct {
	name       string
	lineSize   int
	netLatency int
	size       workload.SizeClass
	nodes, ppn int // 0 = use default geometry
}

// runReq is one simulation request: the scenario cell to run, and how to
// report it. Requests are what both the serial accessors and the parallel
// prefetcher operate on, so the two paths cannot diverge.
type runReq struct {
	cell     *scenario.Cell
	progress bool   // write a progress line when it completes
	arch     string // progress-line labels
	vname    string
}

// cellReq normalizes one machine and workload into a silent request.
func cellReq(cfg config.Config, app string, size workload.SizeClass) (runReq, error) {
	cell, err := scenario.NewCell(cfg, scenario.Workload{App: app, Size: size.String()})
	return runReq{cell: cell}, err
}

// reqFor resolves the standard (app, arch, variant) experiment to a request,
// applying the suite geometry and variant overrides.
func (s *Suite) reqFor(app, arch string, v variant) (runReq, error) {
	cfg, err := s.machine(app).WithArch(arch)
	if err != nil {
		return runReq{}, err
	}
	if v.nodes > 0 {
		cfg.Nodes = v.nodes
	}
	if v.ppn > 0 {
		cfg.ProcsPerNode = v.ppn
	}
	if v.lineSize > 0 {
		cfg.LineSize = v.lineSize
	}
	if v.netLatency > 0 {
		cfg.NetLatency = sim.Time(v.netLatency)
	}
	size := s.Size
	if v.size != 0 {
		size = v.size
	}
	if s.Size == workload.SizeTest {
		size = workload.SizeTest
	}
	req, err := cellReq(cfg, app, size)
	req.progress, req.arch, req.vname = true, arch, v.name
	return req, err
}

// Run simulates one application on one architecture under a variant,
// memoizing the result.
func (s *Suite) Run(app, arch string, v variant) (*stats.Run, error) {
	req, err := s.reqFor(app, arch, v)
	if err != nil {
		return nil, err
	}
	r, err := s.run(req)
	if err != nil {
		return nil, fmt.Errorf("%s/%s (%s): %w", app, arch, v.name, err)
	}
	return r, nil
}

// run returns the memoized result of req, simulating it on a miss.
func (s *Suite) run(req runReq) (*stats.Run, error) {
	if r, ok := s.cache[req.cell.Fp]; ok {
		return r, nil
	}
	r, art, err := simulateDetached(req, s.CollectArtifacts)
	if err != nil {
		return nil, err
	}
	s.commit(req, r, art)
	return r, nil
}

// commit records a completed simulation: progress line, memo cache,
// artifact. Always called in request order, on the suite's goroutine.
func (s *Suite) commit(req runReq, r *stats.Run, art *obs.Artifact) {
	if req.progress && s.Progress != nil {
		fmt.Fprintf(s.Progress, "  ran %-10s %-5s %-12s exec=%-12d 1000*RCCPI=%.2f\n",
			req.cell.Spec.Workload.App, req.arch, req.vname, r.ExecTime, 1000*r.RCCPI())
	}
	s.cache[req.cell.Fp] = r
	if s.CollectArtifacts && art != nil {
		s.artifacts = append(s.artifacts, art)
	}
}

// batch collects the requests an experiment prefetches.
type batch []runReq

// add appends a resolved request. One that failed to resolve (e.g. an
// unknown architecture) is silently skipped: the serial accessor will hit
// the same failure and report it properly.
func (b *batch) add(req runReq, err error) {
	if err == nil {
		*b = append(*b, req)
	}
}

// prefetch warms the memo cache for a set of requests, running the missing
// simulations across the suite's worker budget. Requests must be listed in
// the order the serial code would first execute them: completions are
// committed (progress, cache, artifacts) in exactly that order, so the
// observable output is byte-identical to the serial loop for any Jobs.
//
// Errors are deliberately ignored here: a failed request is simply not
// cached, and the serial accessor that needs it will re-run it and report
// the error with its usual wrapping. That keeps error text and partial
// progress output identical to a serial run, at the cost of re-running the
// one failing simulation.
func (s *Suite) prefetch(reqs batch) {
	if runner.Workers(s.Jobs) == 1 {
		return
	}
	seen := make(map[string]bool, len(reqs))
	todo := reqs[:0:0]
	for _, req := range reqs {
		fp := req.cell.Fp
		if seen[fp] {
			continue
		}
		if _, ok := s.cache[fp]; ok {
			continue
		}
		seen[fp] = true
		todo = append(todo, req)
	}
	if len(todo) == 0 {
		return
	}
	type simOut struct {
		run *stats.Run
		art *obs.Artifact
	}
	collect := s.CollectArtifacts
	_, _ = runner.MapStream(context.Background(), s.Jobs, len(todo),
		func(i int) (simOut, error) {
			r, art, err := simulateDetached(todo[i], collect)
			return simOut{run: r, art: art}, err
		},
		func(i int, out simOut) {
			s.commit(todo[i], out.run, out.art)
		})
}

// simulateDetached executes one simulation without touching any suite
// state, so it is safe to call from runner workers. The artifact (if
// requested) is returned rather than recorded; commit attaches it in order.
func simulateDetached(req runReq, collectArtifact bool) (*stats.Run, *obs.Artifact, error) {
	c := req.cell
	m, err := machine.New(c.Spec.Machine, c.Spec.Workload.App)
	if err != nil {
		return nil, nil, err
	}
	w, err := c.NewWorkload(m.NProcs())
	if err != nil {
		return nil, nil, err
	}
	r, err := workload.Run(m, w)
	if err != nil {
		return nil, nil, err
	}
	var art *obs.Artifact
	if collectArtifact {
		art = c.Artifact("cctables", r)
	}
	return r, art, nil
}

// base returns the base-configuration variant.
func base() variant { return variant{name: "base"} }

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
