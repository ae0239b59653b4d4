package main

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/fault"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

// benchWorkload is one named workload: a fixed set of simulations (a pass)
// that a run repeats in a closed loop until its time budget is spent.
type benchWorkload struct {
	name string
	// setups lists the configurations whose construction setup_s times,
	// and builds how many constructions (cycling through setups) it takes
	// the median over.
	setups func(seed int64) []spec
	builds int
	// pass runs one pass through p.
	pass func(p *passRun)
}

// jobs is the worker and shard count of every workload: the benchmark host
// has two cores, and no workload may use more threads of simulation than
// that.
const jobs = 2

// appSchedules is one app of a chaos sweep and its fault-schedule count.
type appSchedules struct {
	app string
	n   int
}

// chaosSchedules sizes the chaos-sweep pass, in the order the apps run.
var chaosSchedules = []appSchedules{{"fft", 300}, {"ocean", 300}, {"radix", 100}}

var workloads = []*benchWorkload{
	{
		// Protocol-heavy traffic (radix: 13 events per reference): host time
		// goes to the event heap, the controller, bus, network and directory
		// models, and allocation. HWC and 2PPC load the controller with two
		// different occupancies.
		name: "splash-base",
		setups: func(seed int64) []spec {
			var out []spec
			for _, app := range []string{"fft", "ocean", "radix"} {
				for _, arch := range []string{"HWC", "2PPC"} {
					out = append(out, spec{name: app + "/" + arch, app: app, cfg: baseMachine(arch, 1), size: workload.SizeBase, seed: seed})
				}
			}
			return out
		},
		builds: 120,
		pass:   func(p *passRun) { p.serial(p.w.setups(p.seed)...) },
	},
	{
		// The working set fits in L1, so references bypass the protocol
		// layers and the engine-program handoff dominates. A protocol-layer
		// optimisation must leave this workload flat.
		name: "l1-resident",
		setups: func(seed int64) []spec {
			return []spec{
				{name: "water-sp/HWC", app: "water-sp", cfg: baseMachine("HWC", 1), size: workload.SizeBase, seed: seed},
				{name: "micro-private/HWC", app: "micro", cfg: baseMachine("HWC", 1), micro: true},
			}
		},
		builds: 120,
		pass:   func(p *passRun) { p.serial(p.w.setups(p.seed)...) },
	},
	{
		// The only workload that crosses shard windows and barriers; the
		// serial twins check byte identity and give shard.speedup, and are
		// left out of the end-to-end metrics.
		name: "sharded",
		setups: func(seed int64) []spec {
			var out []spec
			for _, app := range []string{"fft", "ocean"} {
				out = append(out, spec{name: app + "/HWC/shards2", app: app, cfg: baseMachine("HWC", jobs), size: workload.SizeBase, seed: seed, twin: app + "/HWC"})
			}
			return out
		},
		builds: 120,
		pass: func(p *passRun) {
			for _, s := range p.w.setups(p.seed) {
				twin := s
				twin.name, twin.cfg.SimShards, twin.twin, twin.reference = s.twin, 1, "", true
				p.serial(twin, s)
			}
		},
	},
	{
		// Hundreds of short simulations on the runner pool: machine
		// construction is a large share of each cell, the pool sets wall
		// time, and the NACK/retry/timeout and fault paths run.
		name: "chaos-sweep",
		setups: func(seed int64) []spec {
			var out []spec
			for _, c := range chaosSchedules {
				out = append(out, chaosSpec(c.app, seed))
			}
			return out
		},
		builds: 300,
		pass:   chaosPass(chaosSchedules),
	},
}

func lookupWorkload(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// baseMachine is the paper's 16x4 base machine with the commands' usual
// watchdog horizon, as ccsim builds it.
func baseMachine(arch string, shards int) config.Config {
	cfg, err := scenario.Default().Machine.WithArch(arch)
	if err != nil {
		panic(err) // the architectures above are literals
	}
	cfg.SimShards = shards
	return cfg
}

// chaosSpec is one app on the machine ccchaos uses by default: 4x2 HWC
// with the robustness preset, at test size.
func chaosSpec(app string, seed int64) spec {
	cfg := scenario.Default().Machine
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	return spec{name: app, app: app, cfg: cfg.WithRobustness(), size: workload.SizeTest, seed: seed}
}

// chaosPass returns a pass that drives each app the way chaos.Campaign
// does: a fault-free pilot counts network messages and cycles, which size
// the fault schedules, and the schedules then run on the pool with seeds
// seed, seed+1, ...
func chaosPass(apps []appSchedules) func(p *passRun) {
	return func(p *passRun) {
		for _, a := range apps {
			pilot := chaosSpec(a.app, p.seed)
			pilot.name, pilot.pilot = "pilot/"+a.app, true
			pc := p.serial(pilot)[0]
			if pc.err != nil {
				continue // its schedules cannot be sized; the pilot counts as failed
			}
			params := fault.Params{
				Events:   2 + pilot.cfg.Nodes,
				Horizon:  pc.exec,
				Messages: pc.pilotMsgs,
				Nodes:    pilot.cfg.Nodes,
				Engines:  pilot.cfg.MaxEngineCount(),
			}
			specs := make([]spec, a.n)
			for i := range specs {
				s := chaosSpec(a.app, p.seed)
				s.name = fmt.Sprintf("%s/%d", a.app, i)
				s.sched = fault.Generate(p.seed+int64(i), params)
				specs[i] = s
			}
			p.pool(specs)
		}
	}
}
