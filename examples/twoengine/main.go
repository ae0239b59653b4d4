// twoengine explores the paper's two-protocol-engine designs (Section 3.4):
// it compares one- and two-engine controllers on a communication-intensive
// workload, prints the LPE/RPE utilization imbalance of the paper's
// local/remote address split, and contrasts it with the round-robin split
// the paper discusses as the "more even" alternative.
package main

import (
	"fmt"
	"log"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

func run(arch string, split config.SplitPolicy) *stats.Run {
	cfg := config.Base()
	cfg, err := cfg.WithArch(arch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Split = split
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 10_000_000_000
	m, err := machine.New(cfg, "radix")
	if err != nil {
		log.Fatal(err)
	}
	w, err := workload.New("radix", workload.SizeTest, m.NProcs())
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
	fmt.Println("Radix sort: one vs two protocol engines (4x2 system)")
	fmt.Println()

	for _, engine := range []string{"HWC", "PPC"} {
		one := run(engine, config.SplitLocalRemote)
		two := run("2"+engine, config.SplitLocalRemote)
		gain := 1 - float64(two.ExecTime)/float64(one.ExecTime)
		fmt.Printf("%-4s -> 2%-4s  exec %8d -> %8d cycles  (%.0f%% faster)\n",
			engine, engine, one.ExecTime, two.ExecTime, 100*gain)
		fmt.Printf("  LPE: util %5.1f%%  share %5.1f%%  queue %6.0f ns\n",
			100*two.AvgUtilization(0), 100*two.EngineShare(0), two.AvgQueueDelayNs(0))
		fmt.Printf("  RPE: util %5.1f%%  share %5.1f%%  queue %6.0f ns\n",
			100*two.AvgUtilization(1), 100*two.EngineShare(1), two.AvgQueueDelayNs(1))
	}

	fmt.Println()
	fmt.Println("Split-policy ablation on 2PPC (paper section 3.4 discussion):")
	lr := run("2PPC", config.SplitLocalRemote)
	rr := run("2PPC", config.SplitRoundRobin)
	fmt.Printf("  local/remote split: %8d cycles (LPE %4.1f%% / RPE %4.1f%% util)\n",
		lr.ExecTime, 100*lr.AvgUtilization(0), 100*lr.AvgUtilization(1))
	fmt.Printf("  round-robin split:  %8d cycles (eng0 %4.1f%% / eng1 %4.1f%% util)\n",
		rr.ExecTime, 100*rr.AvgUtilization(0), 100*rr.AvgUtilization(1))
	fmt.Println()
	fmt.Println("The paper keeps the local/remote split despite its imbalance: only")
	fmt.Println("the LPE needs a directory path, and no handler is duplicated across")
	fmt.Println("the two engines' FSMs.")
}
