package chaos

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/fault"
	"ccnuma/internal/scenario"
)

// BenchmarkChaosCell reports the host time and allocations of one chaos
// cell, the unit a ccchaos campaign (and perfbench's chaos-sweep) repeats:
// build the robust 4x2 machine, inject one seeded fault schedule, run fft
// at test size, and verify the result and the quiesced machine. The
// schedule is sized by a fault-free pilot of the same cell, as a campaign
// sizes its schedules, outside the timed loop.
func BenchmarkChaosCell(b *testing.B) {
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 50_000_000_000
	cfg = cfg.WithRobustness()
	cell, err := scenario.NewCell(cfg, scenario.Workload{App: "fft", Size: "test", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pilot, err := cell.Run()
	if err != nil {
		b.Fatal(err)
	}
	sch := fault.Generate(1, fault.Params{
		Events:   2 + cfg.Nodes,
		Horizon:  pilot.ExecTime,
		Messages: pilot.Counter("netMessages"),
		Nodes:    cfg.Nodes,
		Engines:  cfg.MaxEngineCount(),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := runSchedule(cell, sch); err != nil {
			b.Fatal(err)
		}
	}
}
