// Command ccsweep sweeps one architectural parameter across values and
// architectures, emitting CSV for plotting (the raw material behind the
// paper's sensitivity figures). The grid is a ccnuma-scenario/v1 sweep
// section — by default ocean's network latency on a 4x2 machine at test
// size, or one loaded with -spec — and expands into scenario cells, which
// are independent simulations, so they run concurrently (-jobs); rows are
// still emitted in grid order, so the CSV, artifacts, and error behaviour
// are identical for any -jobs. Each -json artifact embeds its own cell, so
// `ccsim -replay` re-runs it.
//
// Usage:
//
//	ccsweep -app ocean -param netlat -values 14,50,100,200 -archs HWC,PPC
//	ccsweep -app fft -param line -values 32,64,128
//	ccsweep -app radix -param ppn -values 1,2,4,8 -jobs 4
//	ccsweep -spec examples/scenarios/2hwc-vs-2ppc.json -json out/sweep.json
package main

import (
	"flag"
	"fmt"
	"os"

	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/stats"
)

func main() {
	def := scenario.Small()
	def.EnsureSweep()
	scenario.Flags(flag.CommandLine, def, "app", "param", "values", "archs", "size", "nodes", "ppn", "seed", "jobs")
	specPath := flag.String("spec", "", "load a ccnuma-scenario/v1 file; explicit flags override its fields")
	printSpec := flag.Bool("print-spec", false, "print the resolved canonical scenario and exit without simulating")
	jsonPath := flag.String("json", "", "also write an array of run-artifact documents to this file")
	flag.Parse()

	spec, err := scenario.FromFlags(flag.CommandLine, def, *specPath, "")
	if err == nil {
		err = spec.CheckSections("ccsweep")
	}
	if err != nil {
		fatal(err)
	}
	sweep := spec.EnsureSweep()
	if *printSpec {
		canon, err := spec.Canonical()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(canon)
		return
	}
	cells, err := spec.Cells()
	if err == nil {
		err = scenario.CheckOutputFiles(*jsonPath)
	}
	if err != nil {
		fatal(err)
	}

	app := spec.Workload.App
	var artifacts []*obs.Artifact
	var baseline *stats.Run
	fmt.Println("app,param,value,arch,exec_cycles,rccpi_x1000,util_pct,queue_ns,penalty_vs_first_arch_pct")
	if err := scenario.RunCells(spec.Jobs, cells, func(i int, r *stats.Run) {
		c := cells[i]
		if i%len(sweep.Archs) == 0 {
			baseline = r
		}
		penalty := 100 * stats.Penalty(baseline, r)
		fmt.Printf("%s,%s,%d,%s,%d,%.3f,%.2f,%.0f,%.1f\n",
			app, sweep.Param, c.Value, c.Arch, r.ExecTime, 1000*r.RCCPI(),
			100*r.AvgUtilization(-1), r.AvgQueueDelayNs(-1), penalty)
		if *jsonPath != "" {
			a := c.Artifact("ccsweep", r)
			a.PenaltyVsBaselinePct = &penalty
			artifacts = append(artifacts, a)
		}
	}); err != nil {
		fatal(err)
	}
	if *jsonPath != "" {
		if err := obs.WriteArtifactsFile(*jsonPath, artifacts); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "artifacts: %s (%d runs)\n", *jsonPath, len(artifacts))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsweep:", err)
	os.Exit(1)
}
