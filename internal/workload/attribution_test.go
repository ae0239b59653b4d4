package workload

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/fault"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/machine"
	"ccnuma/internal/sim"
)

// runAttributed runs one kernel with attribution on and returns the run.
// Machine.Run already self-checks the conservation invariant; failures
// surface as run errors.
func runAttributed(t *testing.T, cfg config.Config, app string) (*machine.Machine, sim.Time) {
	t.Helper()
	cfg.Attribution = true
	m, err := machine.New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(app, SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(w.Body)
	if err != nil {
		t.Fatalf("%s attributed run: %v", app, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s verification: %v", app, err)
	}
	a := r.Attribution
	if a == nil {
		t.Fatalf("%s: attributed run produced no Attribution stats", app)
	}
	if r.MissLatency.Count == 0 {
		t.Fatalf("%s: no transactions completed under attribution", app)
	}
	if a.Violations != 0 {
		t.Fatalf("%s: %d conservation violations", app, a.Violations)
	}
	if int64(a.TotalCycles()) != r.MissLatency.Sum {
		t.Fatalf("%s: stage cycles %d != miss-latency cycles %d over %d transactions",
			app, a.TotalCycles(), r.MissLatency.Sum, r.MissLatency.Count)
	}
	return m, r.ExecTime
}

// TestAttributionTimingInvisible checks that turning attribution on does not
// move a single cycle: every golden pin must reproduce its exact execution
// time, because span checkpoints observe the schedule without touching it.
func TestAttributionTimingInvisible(t *testing.T) {
	for _, tc := range goldenPins {
		cfg, err := config.Base().WithArch(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Nodes = tc.nodes
		cfg.ProcsPerNode = tc.ppn
		cfg.SimLimit = 2_000_000_000
		_, exec := runAttributed(t, cfg, tc.app)
		if int64(exec) != tc.want {
			t.Errorf("%s on %s with attribution: ExecTime = %d, want %d — span tracing perturbed the schedule",
				tc.app, tc.arch, exec, tc.want)
		}
	}
}

// TestAttributionNoLeak checks that span state is reclaimed across a full
// kernel run: every opened transaction is finished by the time
// the machine quiesces.
func TestAttributionNoLeak(t *testing.T) {
	for _, app := range []string{"fft", "radix", "lu"} {
		cfg, err := config.Base().WithArch("HWC")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Nodes = 4
		cfg.ProcsPerNode = 2
		cfg.SimLimit = 2_000_000_000
		m, _ := runAttributed(t, cfg, app)
		if n := m.Tracer.OpenSpans(); n != 0 {
			t.Errorf("%s: %d transaction spans still open after run end", app, n)
		}
	}
}

// TestAttributionChaosProperty is the property test over seeded chaos
// schedules: under drops, NACKs, duplicates, delays, and the retries they
// trigger, every recovered run's stage spans must still partition the
// observed end-to-end latencies with no gaps or overlaps. Each seed
// generates a different fault schedule from the same pilot sizing.
func TestAttributionChaosProperty(t *testing.T) {
	cfg, err := config.Base().WithArch("HWC")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = 4
	cfg.ProcsPerNode = 2
	cfg.SimLimit = 50_000_000_000
	cfg = cfg.WithRobustness()
	cfg.Attribution = true

	const app = "fft"
	pilot, err := machine.New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	var msgs uint64
	pilot.Net.Fault = func(int, int, interface{}) interconnect.Decision {
		msgs++
		return interconnect.Decision{}
	}
	wp, err := NewSeeded(app, SizeTest, pilot.NProcs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wp.Setup(pilot); err != nil {
		t.Fatal(err)
	}
	rp, err := pilot.Run(wp.Body)
	if err != nil {
		t.Fatalf("pilot: %v", err)
	}

	params := fault.Params{
		Events: 8, Horizon: rp.ExecTime, Messages: msgs,
		Nodes: cfg.Nodes, Engines: cfg.EngineCount(),
	}
	for seed := int64(1); seed <= 12; seed++ {
		sch := fault.Generate(seed, params)
		m, err := machine.New(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		m.InjectFaults(sch)
		w, err := NewSeeded(app, SizeTest, m.NProcs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Body)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sch, err)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("seed %d verification: %v", seed, err)
		}
		a := r.Attribution
		if a == nil || r.MissLatency.Count == 0 {
			t.Fatalf("seed %d: no attributed transactions", seed)
		}
		if a.Violations != 0 {
			t.Fatalf("seed %d: %d conservation violations under faults (%s)", seed, a.Violations, sch)
		}
		if int64(a.TotalCycles()) != r.MissLatency.Sum {
			t.Fatalf("seed %d: stage cycles %d != miss-latency cycles %d (%s)",
				seed, a.TotalCycles(), r.MissLatency.Sum, sch)
		}
		if n := m.Tracer.OpenSpans(); n != 0 {
			t.Fatalf("seed %d: %d spans leaked open", seed, n)
		}
	}
}
