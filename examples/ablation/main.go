// ablation measures the design choices DESIGN.md flags for study: the
// directory cache, the paper's dispatch arbitration policy, and the
// livelock limit, each toggled independently on ocean, a write-back-heavy
// workload.
package main

import (
	"fmt"
	"log"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

func run(arch string, mutate func(*config.Config)) *stats.Run {
	cfg := config.Base()
	cfg, err := cfg.WithArch(arch)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 10_000_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := machine.New(cfg, "ocean")
	if err != nil {
		log.Fatal(err)
	}
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
	fmt.Println("Controller design ablations (ocean, 4x2 system, PPC engines)")
	fmt.Println()

	baseline := run("PPC", nil)
	fmt.Printf("%-34s %10d cycles (util %.1f%%, queue %.0f ns)\n",
		"baseline PPC", baseline.ExecTime,
		100*baseline.AvgUtilization(-1), baseline.AvgQueueDelayNs(-1))

	cases := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"no directory cache", func(c *config.Config) { c.DirCacheEntries = 0 }},
		{"tiny directory cache (256)", func(c *config.Config) { c.DirCacheEntries = 256 }},
		{"FIFO dispatch arbitration", func(c *config.Config) { c.Arbitration = config.ArbFIFO }},
		{"livelock limit 1", func(c *config.Config) { c.LivelockLimit = 1 }},
		{"livelock limit 16", func(c *config.Config) { c.LivelockLimit = 16 }},
	}
	for _, tc := range cases {
		r := run("PPC", tc.mutate)
		delta := 100 * (float64(r.ExecTime)/float64(baseline.ExecTime) - 1)
		fmt.Printf("%-34s %10d cycles (%+.1f%%)\n", tc.name, r.ExecTime, delta)
	}

	fmt.Println()
	fmt.Println("Same ablations on HWC engines:")
	hbase := run("HWC", nil)
	fmt.Printf("%-34s %10d cycles\n", "baseline HWC", hbase.ExecTime)
	for _, tc := range cases {
		r := run("HWC", tc.mutate)
		delta := 100 * (float64(r.ExecTime)/float64(hbase.ExecTime) - 1)
		fmt.Printf("%-34s %10d cycles (%+.1f%%)\n", tc.name, r.ExecTime, delta)
	}
	fmt.Printf("\nPP penalty at baseline: %+.0f%%\n", 100*stats.Penalty(hbase, baseline))
}
