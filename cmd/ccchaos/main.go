// Command ccchaos runs workload kernels under seeded fault-injection
// schedules on the robust machine configuration and checks that every run
// recovers (see internal/chaos). The campaign is a ccnuma-scenario/v1
// faults section — by default 25 schedules of each of the paper's eight
// applications on a 4x2 machine at test size, one loaded with -spec, or
// the campaign a ccchaos artifact embeds, re-run with -replay. Each
// schedule is generated deterministically from its seed, so any failure is
// reproducible from the printed (app, seed) pair alone; schedules run
// concurrently under -jobs with output identical to a serial run.
//
// Usage:
//
//	ccchaos -app fft -schedules 50
//	ccchaos -app all -size test -nodes 4 -ppn 2 -schedules 25 -jobs 4
//	ccchaos -app radix -schedules 200 -seed 1000 -json out/
//	ccchaos -spec examples/scenarios/base.json -schedules 10
//	ccchaos -replay out/ccchaos-radix.json -json out2/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccnuma/internal/chaos"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

func main() {
	def := scenario.Small()
	def.Workload.App = "all"
	plan := def.EnsureFaults()
	scenario.Flags(flag.CommandLine, def, "app", "arch", "nodes", "ppn", "size", "schedules", "first", "events", "jobs", "shards")
	seed := flag.Int64("seed", plan.BaseSeed, "base seed; schedule s runs under seed base+s")
	specPath := flag.String("spec", "", "load a ccnuma-scenario/v1 file; explicit flags override its fields")
	replayPath := flag.String("replay", "", "re-run the campaign embedded in a ccchaos artifact")
	printSpec := flag.Bool("print-spec", false, "print the resolved canonical scenario and exit without simulating")
	jsonDir := flag.String("json", "", "write one run artifact per app (ccchaos-<app>.json) into this directory")
	quiet := flag.Bool("q", false, "suppress per-schedule progress output")
	flag.Parse()

	spec, err := scenario.FromFlags(flag.CommandLine, def, *specPath, *replayPath)
	if err == nil && *replayPath != "" && spec.Faults == nil {
		err = fmt.Errorf("%s records one run, not a campaign; re-run it with ccsim -replay", *replayPath)
	}
	if err == nil {
		err = spec.CheckSections("ccchaos")
	}
	if err != nil {
		fatal(err)
	}
	faults := spec.EnsureFaults()
	// ccchaos's -seed seeds the fault schedules (and through the campaign
	// the kernels), not the workload input.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			faults.BaseSeed = *seed
		}
	})
	// Chaos always runs on a robust machine, whether or not the spec says
	// so.
	spec.Machine.Robust = true
	canon, err := spec.Canonical()
	if err != nil {
		fatal(err)
	}
	if *printSpec {
		os.Stdout.Write(canon)
		return
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		fatal(err)
	}

	cfg := spec.Machine
	size, err := spec.Size()
	if err == nil {
		err = scenario.CheckOutputDir(*jsonDir)
	}
	if err != nil {
		fatal(err)
	}

	apps := []string{spec.Workload.App}
	if spec.Workload.App == "all" {
		apps = workload.PaperApps
	}
	nEvents := faults.Events
	if nEvents <= 0 {
		nEvents = 2 + cfg.Nodes
	}

	fmt.Printf("ccchaos: %s on %s (%d nodes x %d procs), %d schedules/app, %d faults/schedule, base seed %d\n",
		strings.Join(apps, ","), cfg.ArchName(), cfg.Nodes, cfg.ProcsPerNode, faults.Schedules, nEvents, faults.BaseSeed)

	c := &chaos.Campaign{
		Cfg:                 cfg,
		Size:                size,
		SizeName:            spec.Workload.Size,
		First:               faults.First,
		Schedules:           faults.Schedules,
		Events:              nEvents,
		BaseSeed:            faults.BaseSeed,
		Jobs:                spec.Jobs,
		JSONDir:             *jsonDir,
		ScenarioJSON:        canon,
		ScenarioFingerprint: fp,
		Quiet:               *quiet,
		Out:                 os.Stdout,
	}
	failures := 0
	for _, name := range apps {
		n, err := c.RunApp(name)
		if err != nil {
			fatal(err)
		}
		failures += n
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d/%d chaos runs did not recover\n", failures, faults.Schedules*len(apps))
		os.Exit(1)
	}
	fmt.Printf("PASS: %d chaos runs, all recovered\n", faults.Schedules*len(apps))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccchaos:", err)
	os.Exit(1)
}
