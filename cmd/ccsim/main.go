// Command ccsim runs a single CC-NUMA simulation — one application on one
// coherence-controller architecture — and prints a full statistics report.
// The run is described by a ccnuma-scenario/v1 document: the paper's base
// machine running ocean by default, a file loaded with -spec, or the
// scenario embedded in a run artifact given to -replay, which reproduces
// that run byte for byte; each flag the user sets overrides one field.
//
// Usage:
//
//	ccsim -app ocean -arch PPC
//	ccsim -app fft -arch 2HWC -nodes 8 -ppn 4 -line 32 -netlat 200 -size large
//	ccsim -spec examples/scenarios/base.json -netlat 200
//	ccsim -spec examples/scenarios/base.json -print-spec
//	ccsim -replay out/run.json -json out/run2.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

func main() {
	def := scenario.Default()
	scenario.Flags(flag.CommandLine, def, "app", "arch", "engines", "node-archs", "nodes", "ppn", "line", "netlat",
		"size", "split", "arb", "topo", "dircache", "seed", "robust", "attribution", "shards")
	specPath := flag.String("spec", "", "load a ccnuma-scenario/v1 file; explicit flags override its fields")
	replayPath := flag.String("replay", "", "re-run the scenario embedded in a run artifact")
	printSpec := flag.Bool("print-spec", false, "print the resolved canonical scenario and exit without simulating")
	counters := flag.Bool("counters", false, "dump all raw counters")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON (Perfetto) to this file")
	traceBuf := flag.Int("tracebuf", 1<<18, "trace ring-buffer capacity in events")
	sampleEvery := flag.Int64("sample", 0, "sample machine state every N simulated cycles (0 = off)")
	sampleOut := flag.String("sample-out", "", "time-series output file (.json = JSON, else CSV; default samples.csv)")
	jsonPath := flag.String("json", "", "write the machine-readable run artifact to this file")
	perfOut := flag.Bool("perf", false, "include host engine-throughput numbers in the artifact (makes it host-dependent)")
	flag.Parse()

	spec, err := scenario.FromFlags(flag.CommandLine, def, *specPath, *replayPath)
	if err == nil {
		err = spec.CheckSections("ccsim")
	}
	if err != nil {
		fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		fatal(err)
	}
	if *printSpec {
		os.Stdout.Write(canon)
		return
	}
	sampleFile := ""
	if *sampleEvery > 0 {
		sampleFile = *sampleOut
	}
	if err := scenario.CheckOutputFiles(*tracePath, sampleFile, *jsonPath); err != nil {
		fatal(err)
	}
	// ccsim runs its spec's machine and workload as one cell.
	cell, err := scenario.NewCell(spec.Machine, spec.Workload)
	if err != nil {
		fatal(err)
	}
	cfg := cell.Spec.Machine
	app := cell.Spec.Workload.App

	var tr *obs.Tracer
	if *tracePath != "" {
		tr = obs.NewTracer(obs.WithBuffer(*traceBuf))
	}
	m, err := machine.NewTraced(cfg, app, tr)
	if err != nil {
		fatal(err)
	}
	var sampler *obs.Sampler
	if *sampleEvery > 0 {
		sampler = obs.NewSampler(sim.Time(*sampleEvery))
		m.AttachSampler(sampler)
	}
	w, err := cell.NewWorkload(m.NProcs())
	if err != nil {
		fatal(err)
	}
	var r *stats.Run
	var runErr error
	perf := obs.MeasurePerf(func() uint64 {
		r, runErr = workload.Run(m, w)
		return m.Executed()
	})
	if runErr != nil {
		fatal(runErr)
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(*tracePath, tr.Events()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s (%d events, %d dropped by ring wraparound)\n",
			*tracePath, tr.Recorded(), tr.Dropped())
	}
	if sampler != nil {
		out := *sampleOut
		if out == "" {
			out = "samples.csv"
		}
		if err := sampler.WriteFile(out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "samples: %s (%d rows every %d cycles)\n",
			out, len(sampler.Samples()), sampler.Interval)
	}
	if *jsonPath != "" {
		art := cell.Artifact("ccsim", r)
		// Host timing is excluded by default so that -replay of the
		// artifact reproduces it byte for byte.
		if *perfOut {
			art.Perf = &perf
		}
		if err := art.WriteFile(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "artifact: %s\n", *jsonPath)
	}

	fmt.Printf("scenario:           %s\n", cell.Fp)
	fmt.Printf("application:        %s (%s)\n", app, cell.Spec.Workload.Size)
	fmt.Printf("architecture:       %s (%d nodes x %d procs, %dB lines, %d-cycle network)\n",
		cfg.ArchName(), cfg.Nodes, cfg.ProcsPerNode, cfg.LineSize, cfg.NetLatency)
	fmt.Printf("execution time:     %d cycles (%.2f us)\n", r.ExecTime, r.ExecTime.Nanoseconds()/1000)
	fmt.Printf("instructions:       %d\n", r.Instructions)
	fmt.Printf("1000 x RCCPI:       %.3f\n", 1000*r.RCCPI())
	fmt.Printf("controller util:    %.2f%%\n", 100*r.AvgUtilization(-1))
	if cfg.EngineCount() == 2 {
		fmt.Printf("  LPE util:         %.2f%% (share %.1f%%, queue %.0f ns)\n",
			100*r.AvgUtilization(0), 100*r.EngineShare(0), r.AvgQueueDelayNs(0))
		fmt.Printf("  RPE util:         %.2f%% (share %.1f%%, queue %.0f ns)\n",
			100*r.AvgUtilization(1), 100*r.EngineShare(1), r.AvgQueueDelayNs(1))
	}
	fmt.Printf("queueing delay:     %.0f ns\n", r.AvgQueueDelayNs(-1))
	fmt.Printf("arrival rate:       %.2f requests/us per controller\n", r.ArrivalRatePerMicrosecond())
	fmt.Printf("requests to CCs:    %d\n", r.TotalArrivals())
	fmt.Printf("engine throughput:  %s\n", perf)

	fmt.Printf("miss latency:       mean %.0f cycles, p50=%.0f p90=%.0f p99=%.0f max=%d (n=%d)\n",
		r.MissLatency.Mean(), r.MissLatency.Percentile(50), r.MissLatency.Percentile(90),
		r.MissLatency.Percentile(99), r.MissLatency.MaxVal, r.MissLatency.Count)
	qd := r.QueueDelayHistogram()
	fmt.Printf("queueing delay dist: p50=%.0f p95=%.0f p99=%.0f max=%d cycles (n=%d)\n",
		qd.Percentile(50), qd.Percentile(95), qd.Percentile(99), qd.MaxVal, qd.Count)
	if cfg.Robust {
		ns, nr, rt, to, ba, sd := r.RecoveryTotals()
		fmt.Printf("recovery:           nacksSent=%d nacksRecv=%d retries=%d timeouts=%d busAborts=%d strayDrops=%d\n",
			ns, nr, rt, to, ba, sd)
		rl := r.RetryLatencyHistogram()
		fmt.Printf("retry latency:      p50=%.0f p95=%.0f p99=%.0f max=%d cycles (n=%d)\n",
			rl.Percentile(50), rl.Percentile(95), rl.Percentile(99), rl.MaxVal, rl.Count)
	}

	if a := r.Attribution; a != nil {
		e2e := &r.MissLatency // every tracked miss is one transaction
		fmt.Printf("attribution:        %d transactions, end-to-end mean %.0f cycles, p50=%.0f p95=%.0f p99=%.0f\n",
			e2e.Count, e2e.Mean(), e2e.Percentile(50), e2e.Percentile(95), e2e.Percentile(99))
		for _, st := range a.Stages {
			if st.Hist.Sum == 0 {
				continue
			}
			fmt.Printf("  %-10s        %6.2f%%  (%d cycles, mean %.0f over %d spans)\n",
				st.Stage, 100*a.StageShare(st.Stage), st.Hist.Sum, st.Hist.Mean(), st.Hist.Count)
		}
	}

	if *counters {
		fmt.Println("\ncounters:")
		names := r.CounterNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-40s %d\n", n, r.Counter(n))
		}
		fmt.Println()
		fmt.Print(r.MissLatency.Render("miss latency distribution (cycles)"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsim:", err)
	os.Exit(1)
}
