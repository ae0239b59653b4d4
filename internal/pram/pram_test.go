package pram

import (
	"runtime"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/prog"
	"ccnuma/internal/workload"
)

func newSim(t *testing.T, nodes, ppn int) (*Sim, *memaddr.Space, *config.Config) {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = ppn
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	space := memaddr.NewSpace(&cfg)
	return New(&cfg, space), space, &cfg
}

func TestLocalOnlyHasNoControllerTraffic(t *testing.T) {
	s, space, _ := newSim(t, 2, 1)
	bases := []uint64{space.AllocOnNode(4096, 0), space.AllocOnNode(4096, 1)}
	err := s.Run(func(e prog.Env) {
		for i := 0; i < 20; i++ {
			e.Read(bases[e.Node()] + uint64(i*8))
			e.Write(bases[e.Node()] + uint64(i*8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CCRequests() != 0 {
		t.Fatalf("local-only run estimated %d controller requests", s.CCRequests())
	}
	if s.Instructions() == 0 {
		t.Fatal("no instructions counted")
	}
}

func TestRemoteReadCharged(t *testing.T) {
	s, space, _ := newSim(t, 2, 1)
	base := space.AllocOnNode(4096, 0)
	err := s.Run(func(e prog.Env) {
		if e.ID() == 1 {
			e.Read(base)
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CCRequests() != 3 {
		t.Fatalf("remote clean read charged %d, want 3", s.CCRequests())
	}
}

func TestMigratoryWriteCharged(t *testing.T) {
	s, space, _ := newSim(t, 2, 1)
	base := space.AllocOnNode(4096, 0)
	err := s.Run(func(e prog.Env) {
		if e.ID() == 1 {
			e.Write(base) // remote readex, uncached: 3
		}
		e.Barrier()
		if e.ID() == 0 {
			e.Read(base) // local read, dirty remote: 3
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.CCRequests() != 6 {
		t.Fatalf("charged %d, want 6", s.CCRequests())
	}
}

func TestBarrierAndLockScheduling(t *testing.T) {
	s, _, _ := newSim(t, 2, 2)
	counter := 0
	err := s.Run(func(e prog.Env) {
		for i := 0; i < 3; i++ {
			e.Lock(1)
			counter++
			e.Unlock(1)
			e.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 12 {
		t.Fatalf("critical sections = %d, want 12", counter)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s, _, _ := newSim(t, 2, 1)
	err := s.Run(func(e prog.Env) {
		if e.ID() == 0 {
			e.Barrier() // proc 1 never joins
		}
	})
	if err == nil {
		t.Fatal("mismatched barrier should be detected")
	}
}

// TestRunReleasesPrograms checks that Run's deadlock error leaves no
// program coroutine parked: the goroutine count returns to its starting
// value.
func TestRunReleasesPrograms(t *testing.T) {
	before := runtime.NumGoroutine()
	s, space, _ := newSim(t, 2, 2)
	base := space.Alloc(4096)
	err := s.Run(func(e prog.Env) {
		e.Read(base)
		if e.ID() != 3 {
			e.Barrier() // proc 3 never joins
		}
	})
	if err == nil {
		t.Fatal("mismatched barrier should be detected")
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > before; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines after the failed run, %d before", n, before)
	}
}

// TestEstimateTracksDetailed compares the PRAM RCCPI estimate against the
// detailed simulator for real workloads: within a factor of two and
// order-preserving, which is all the paper's prediction methodology needs.
func TestEstimateTracksDetailed(t *testing.T) {
	apps := []string{"ocean", "lu", "radix"}
	est := map[string]float64{}
	det := map[string]float64{}
	for _, app := range apps {
		// Detailed run.
		cfg := config.Base()
		cfg.Nodes, cfg.ProcsPerNode = 4, 2
		cfg.SimLimit = 10_000_000_000
		m, err := machine.New(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.New(app, workload.SizeTest, m.NProcs())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		det[app] = r.RCCPI()

		// PRAM estimate (fresh machine for a fresh address space).
		m2, err := machine.New(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := workload.New(app, workload.SizeTest, m2.NProcs())
		if err != nil {
			t.Fatal(err)
		}
		if err := w2.Setup(m2); err != nil {
			t.Fatal(err)
		}
		s := New(&m2.Cfg, m2.Space)
		if err := s.Run(w2.Body); err != nil {
			t.Fatal(err)
		}
		est[app] = s.RCCPI()
		t.Logf("%-8s detailed 1000*RCCPI=%.2f  pram=%.2f  ratio=%.2f",
			app, 1000*det[app], 1000*est[app], est[app]/det[app])
	}
	for _, app := range apps {
		ratio := est[app] / det[app]
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: PRAM estimate off by %.2fx", app, ratio)
		}
	}
	// Ordering must hold: ocean and radix communicate more than lu.
	if !(est["ocean"] > est["lu"]) || !(est["radix"] > est["lu"]) {
		t.Errorf("PRAM ordering broken: %v", est)
	}
}

// TestEstimateAllApps runs the estimator over every registered paper
// application, checking it completes and produces a positive estimate.
func TestEstimateAllApps(t *testing.T) {
	for _, app := range workload.PaperApps {
		app := app
		t.Run(app, func(t *testing.T) {
			cfg := config.Base()
			cfg.Nodes, cfg.ProcsPerNode = 2, 2
			m, err := machine.New(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.New(app, workload.SizeTest, m.NProcs())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Setup(m); err != nil {
				t.Fatal(err)
			}
			s := New(&m.Cfg, m.Space)
			if err := s.Run(w.Body); err != nil {
				t.Fatal(err)
			}
			if s.RCCPI() <= 0 {
				t.Fatalf("RCCPI estimate %v", s.RCCPI())
			}
			// The functional pass runs the real computation too.
			if err := w.Verify(); err != nil {
				t.Fatalf("verification under PRAM: %v", err)
			}
		})
	}
}
