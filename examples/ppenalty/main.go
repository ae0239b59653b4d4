// ppenalty reproduces the paper's prediction methodology (Section 3.3,
// Figure 12): sweep a simple synthetic workload across communication rates
// (RCCPI), measure the protocol-processor penalty at each point, and print
// the penalty-versus-RCCPI curve that lets a designer predict the penalty
// of a large application from its RCCPI alone.
package main

import (
	"fmt"
	"log"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

func measure(arch string, sharePct, computePer int) *stats.Run {
	cfg := config.Base()
	cfg, err := cfg.WithArch(arch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 8, 4
	cfg.SimLimit = 10_000_000_000
	m, err := machine.New(cfg, "micro")
	if err != nil {
		log.Fatal(err)
	}
	r, err := workload.Run(m, workload.NewMicro(300, sharePct, computePer, m.NProcs()))
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	fmt.Println("PP penalty vs communication rate (micro workload sweep, 8x4 system)")
	fmt.Println()
	fmt.Printf("%-22s %12s %12s %12s\n", "point (share/compute)", "1000xRCCPI", "PP penalty", "PPC util")
	type knob struct{ share, compute int }
	for _, k := range []knob{
		{2, 400}, {5, 200}, {10, 120}, {20, 80}, {35, 50}, {50, 30}, {70, 20}, {90, 10},
	} {
		hwc := measure("HWC", k.share, k.compute)
		ppc := measure("PPC", k.share, k.compute)
		fmt.Printf("share=%2d%% compute=%-4d  %12.2f %11.0f%% %11.1f%%\n",
			k.share, k.compute, 1000*hwc.RCCPI(),
			100*stats.Penalty(hwc, ppc), 100*ppc.AvgUtilization(-1))
	}
	fmt.Println()
	fmt.Println("Reading the curve: find a large application's RCCPI with a cheap")
	fmt.Println("simulator, look up the penalty here — the paper's methodology for")
	fmt.Println("predicting controller-architecture impact without detailed simulation.")
}
