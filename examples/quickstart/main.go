// Quickstart: build a CC-NUMA machine, run one SPLASH-2-style workload on
// two controller architectures, and print the PP penalty — the paper's
// headline metric — in about thirty lines of API use.
package main

import (
	"fmt"
	"log"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

func run(arch string) *stats.Run {
	// Start from the paper's base system (16 SMP nodes x 4 processors,
	// 128-byte lines, 70 ns network) and pick a controller architecture.
	cfg := config.Base()
	cfg, err := cfg.WithArch(arch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2 // shrink for a quick demo
	cfg.SimLimit = 10_000_000_000

	m, err := machine.New(cfg, "ocean")
	if err != nil {
		log.Fatal(err)
	}

	// workload.Run allocates the workload's shared regions, runs it SPMD
	// on every simulated processor, checks its result, and returns the
	// paper's statistics.
	w, err := workload.New("ocean", workload.SizeTest, m.NProcs())
	if err != nil {
		log.Fatal(err)
	}
	r, err := workload.Run(m, w)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	hwc := run("HWC")
	ppc := run("PPC")
	fmt.Printf("Ocean on HWC: %8d cycles (controller utilization %.1f%%)\n",
		hwc.ExecTime, 100*hwc.AvgUtilization(-1))
	fmt.Printf("Ocean on PPC: %8d cycles (controller utilization %.1f%%)\n",
		ppc.ExecTime, 100*ppc.AvgUtilization(-1))
	fmt.Printf("PP penalty:   %+.0f%%   (1000 x RCCPI = %.2f)\n",
		100*stats.Penalty(hwc, ppc), 1000*hwc.RCCPI())
}
