// Command ccchaos runs workload kernels under seeded fault-injection
// schedules on the robust machine configuration and checks that every run
// recovers (see internal/chaos). The campaign is a ccnuma-scenario/v1
// faults section — flags build one implicitly, -spec loads one from a
// file. Each schedule is generated deterministically from its seed, so any
// failure is reproducible from the printed (app, seed) pair alone;
// schedules run concurrently under -jobs with output identical to a
// serial run.
//
// Usage:
//
//	ccchaos -app fft -schedules 50
//	ccchaos -app all -size test -nodes 4 -ppn 2 -schedules 25 -jobs 4
//	ccchaos -app radix -schedules 200 -seed 1000 -json out/
//	ccchaos -spec examples/scenarios/base.json -schedules 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ccnuma/internal/chaos"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

func main() {
	flag.String("app", "all", fmt.Sprintf("application, or \"all\" for the paper's eight: %v", workload.PaperApps))
	flag.String("arch", "HWC", "controller architecture: HWC, PPC, PPCA, 2HWC, 2PPC, 2PPCA")
	flag.Int("nodes", 4, "SMP nodes")
	flag.Int("ppn", 2, "processors per node")
	flag.String("size", "test", "problem size: test, small, base, large")
	flag.Int("schedules", 25, "fault schedules per application")
	flag.Int("first", 0, "index of the first schedule (repro: -first N -schedules 1 replays exactly schedule N)")
	flag.Int("events", 0, "faults per schedule (0 = scale with the machine: 2 + nodes)")
	flag.Int64("seed", 1, "base seed; schedule s runs under seed base+s")
	flag.Int("jobs", 0, "schedules to run concurrently (0 = GOMAXPROCS; 1 = serial; output is identical for any value)")
	flag.Int("shards", 1, "event-engine shards inside each simulation (results are identical for any value)")
	specPath := flag.String("spec", "", "load a ccnuma-scenario/v1 file; explicit flags override its fields")
	printSpec := flag.Bool("print-spec", false, "print the resolved canonical scenario and exit without simulating")
	jsonDir := flag.String("json", "", "write one run artifact per app (ccchaos-<app>.json) into this directory")
	quiet := flag.Bool("q", false, "suppress per-schedule progress output")
	flag.Parse()

	// ccchaos's -seed seeds the fault schedules (and through the campaign
	// the kernels), not the generic workload seed.
	overrides := map[string]scenario.FlagFunc{
		"seed": func(s *scenario.Spec, value string) error {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return err
			}
			s.EnsureFaults().BaseSeed = v
			return nil
		},
	}
	spec, err := scenario.FromFlags(flag.CommandLine, *specPath, "", overrides)
	if err == nil {
		err = spec.CheckSections("ccchaos")
	}
	if err != nil {
		fatal(err)
	}
	faults := spec.EnsureFaults()
	// Chaos always runs on a robust machine, whether or not the spec says
	// so, exactly as the flag path always has.
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
