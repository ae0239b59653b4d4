// Package chaos runs workload kernels under seeded fault-injection
// schedules on the robust machine configuration and checks that every run
// recovers: the kernel completes, its result verifies, the network drains,
// and the coherence invariants hold on the quiesced machine. Each schedule
// is generated deterministically from its seed, so any failure is
// reproducible from the (app, seed) pair alone.
//
// Schedules are independent simulations, so a campaign fans them across
// Jobs workers; reporting is always in schedule order, making the output
// and artifacts byte-identical for any Jobs value.
package chaos

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/fault"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/runner"
	"ccnuma/internal/scenario"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// Campaign describes one chaos sweep over fault schedules. Per app it first
// executes one fault-free pilot run to size the schedule (message count and
// time horizon), then Schedules chaos runs with seeds BaseSeed+First,
// BaseSeed+First+1, ...
type Campaign struct {
	Cfg      config.Config
	Size     workload.SizeClass
	SizeName string
	// First is the index of the first schedule (repro: First=N, Schedules=1
	// replays exactly schedule N).
	First     int
	Schedules int
	// Events is the number of faults per schedule.
	Events   int
	BaseSeed int64
	// Jobs bounds how many schedules run concurrently (<= 0 = GOMAXPROCS,
	// 1 = serial). Output is identical for any value.
	Jobs int
	// JSONDir, when non-empty, receives one run artifact per app
	// (ccchaos-<app>.json).
	JSONDir string
	// ScenarioJSON and ScenarioFingerprint, when set, are embedded in every
	// artifact so the campaign is replayable from its own output.
	ScenarioJSON        []byte
	ScenarioFingerprint string
	// Quiet suppresses per-schedule progress lines.
	Quiet bool
	// Out receives all progress and summary output (required).
	Out io.Writer
}

// RunApp pilots one app fault-free, then runs the schedule sweep. It
// returns the number of failed schedules.
func (c *Campaign) RunApp(name string) (int, error) {
	// Every run of the app is one cell: the kernel seeded like its
	// schedules, on the campaign's robust machine.
	cell, err := scenario.NewCell(c.Cfg, scenario.Workload{App: name, Size: c.Size.String(), Seed: c.BaseSeed})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	// Pilot: the cell run fault-free, whose network message count and
	// execution time size the schedules so their fault coordinates land
	// inside the run instead of past its end.
	pilot, err := cell.Run()
	if err != nil {
		return 0, fmt.Errorf("%s: fault-free pilot failed (nothing injected): %w", name, err)
	}
	pilotMsgs := pilot.Counter("netMessages")
	if !c.Quiet {
		fmt.Fprintf(c.Out, "%-10s pilot: %d messages, %d cycles\n", name, pilotMsgs, pilot.ExecTime)
	}

	params := fault.Params{
		Events:   c.Events,
		Horizon:  pilot.ExecTime,
		Messages: pilotMsgs,
		Nodes:    c.Cfg.Nodes,
		Engines:  c.Cfg.MaxEngineCount(),
	}

	// One schedule = one job. A schedule that fails to recover is a result,
	// not an error: the sweep always runs to completion, exactly like the
	// serial loop, and failures are reported in schedule order.
	type scheduleResult struct {
		sch  *fault.Schedule
		run  *stats.Run
		inj  *fault.Injector
		fail *obs.FailureDoc
		err  error
	}
	failed := 0
	applied := map[string]uint64{}
	var failures []obs.FailureDoc
	var lastRun *stats.Run
	_, err = runner.MapStream(context.Background(), c.Jobs, c.Schedules,
		func(i int) (scheduleResult, error) {
			seed := c.BaseSeed + int64(c.First+i)
			sch := fault.Generate(seed, params)
			r, inj, fail, err := runSchedule(cell, sch)
			return scheduleResult{sch: sch, run: r, inj: inj, fail: fail, err: err}, nil
		},
		func(i int, res scheduleResult) {
			s := c.First + i
			seed := c.BaseSeed + int64(s)
			if res.err != nil {
				failed++
				doc := res.fail
				if doc == nil {
					doc = machine.ClassifyFailure(res.err)
				}
				doc.Seed = seed
				failures = append(failures, *doc)
				fmt.Fprintf(c.Out, "%-10s seed=%d FAILED [%s]: %v\n", name, seed, doc.Class, res.err)
				fmt.Fprintf(c.Out, "  repro: ccchaos -app %s -arch %s -nodes %d -ppn %d -size %s -seed %d -first %d -schedules 1 -events %d\n",
					name, c.Cfg.ArchName(), c.Cfg.Nodes, c.Cfg.ProcsPerNode, c.SizeName, c.BaseSeed, s, c.Events)
				fmt.Fprintf(c.Out, "  schedule: %s\n", res.sch)
				return
			}
			for k, v := range res.inj.AppliedByKind() {
				applied[k] += v
			}
			lastRun = res.run
			if !c.Quiet {
				ns, nr, rt, to, ba, sd := res.run.RecoveryTotals()
				fmt.Fprintf(c.Out, "%-10s seed=%d ok: %d/%d faults applied, exec=%d cycles, nacks=%d/%d retries=%d timeouts=%d busAborts=%d strayDrops=%d\n",
					name, seed, res.inj.AppliedTotal(), len(res.sch.Events), res.run.ExecTime, ns, nr, rt, to, ba, sd)
			}
		})
	if err != nil {
		return failed, err
	}

	fmt.Fprintf(c.Out, "%-10s %d/%d schedules recovered; faults applied: %s\n",
		name, c.Schedules-failed, c.Schedules, renderApplied(applied))

	if c.JSONDir != "" && lastRun != nil {
		art := obs.NewArtifact("ccchaos", c.SizeName, &c.Cfg, lastRun)
		art.Seed = c.BaseSeed
		art.Scenario = c.ScenarioJSON
		art.ScenarioFingerprint = c.ScenarioFingerprint
		art.Recovery = obs.NewRecoveryDoc(lastRun, applied)
		art.Recovery.Failures = failures
		path := filepath.Join(c.JSONDir, "ccchaos-"+name+".json")
		if err := art.WriteFile(path); err != nil {
			return failed, err
		}
		if !c.Quiet {
			fmt.Fprintf(c.Out, "%-10s artifact: %s\n", name, path)
		}
	}
	return failed, nil
}

// runSchedule runs the cell with the schedule injected. The run applies
// every recovery check: workload.Run verifies the result, and Machine.Run
// enforces processor completion, zero transient protocol ops, a drained
// network, and the coherence invariants on the quiesced machine.
func runSchedule(cell *scenario.Cell, sch *fault.Schedule) (r *stats.Run, inj *fault.Injector, fail *obs.FailureDoc, err error) {
	// The recovery machinery is deliberately fail-stop (e.g. an exhausted
	// retry budget panics); one schedule's failure must not take down the
	// rest of the sweep. The panic value is classified before it is
	// flattened to an error, so the artifact records *why* the schedule
	// failed (retry-budget exhaustion vs an unclassified panic).
	defer func() {
		if p := recover(); p != nil {
			fail = machine.ClassifyFailure(p)
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	r, err = cell.Run(func(m *machine.Machine) { inj = m.InjectFaults(sch) })
	return r, inj, nil, err
}

func renderApplied(applied map[string]uint64) string {
	if len(applied) == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(applied))
	for k := range applied {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, applied[k]))
	}
	return strings.Join(parts, " ")
}
