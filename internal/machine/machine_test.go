package machine

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/prog"
	"ccnuma/internal/protocol"
	"ccnuma/internal/stats"
)

// testCfg returns a small machine configuration with a deadlock guard.
func testCfg(nodes, procs int) config.Config {
	cfg := config.Base()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = procs
	cfg.SimLimit = 50_000_000
	return cfg
}

func mustRun(t *testing.T, cfg config.Config, name string, prog func(prog.Env)) (*Machine, *stats.Run) {
	t.Helper()
	m, err := New(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func TestLocalReadsNeverTouchController(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "local")
	if err != nil {
		t.Fatal(err)
	}
	// One page per node; each processor touches only its own node's page.
	addrs := []uint64{m.Space.AllocOnNode(4096, 0), m.Space.AllocOnNode(4096, 1)}
	r, err := m.Run(func(e prog.Env) {
		base := addrs[e.Node()]
		for i := 0; i < 20; i++ {
			e.Read(base + uint64(i*8))
			e.Write(base + uint64(i*8))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TotalArrivals(); got != 0 {
		t.Fatalf("local-only run sent %d requests to controllers", got)
	}
	if r.ExecTime == 0 || r.Instructions == 0 {
		t.Fatalf("suspicious run: %+v", r)
	}
}

func TestRemoteReadMissPath(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "remote-read")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0) // homed on node 0
	r, err := m.Run(func(e prog.Env) {
		if e.ID() == 1 { // processor on node 1 reads node 0's line
			e.Read(base)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalArrivals() == 0 {
		t.Fatal("remote read did not reach any controller")
	}
	// Requester side and home side handlers must each fire once.
	if c := m.CCs[1].HandlerCount(protocol.HBusReadRemote); c != 1 {
		t.Errorf("bus-read-remote count = %d, want 1", c)
	}
	if c := m.CCs[0].HandlerCount(protocol.HRemoteReadHomeClean); c != 1 {
		t.Errorf("home clean read count = %d, want 1", c)
	}
	if c := m.CCs[1].HandlerCount(protocol.HDataRespRead); c != 1 {
		t.Errorf("data response count = %d, want 1", c)
	}
}

// TestRemoteReadLatencyTable3 checks the no-contention remote clean read
// miss latency against the paper's Table 3: 142 cycles for HWC and 212 for
// PPC (+/- a tolerance for model granularity), i.e. roughly +49% for PPC.
func TestRemoteReadLatencyTable3(t *testing.T) {
	measure := func(engine config.EngineKind) int64 {
		cfg := testCfg(2, 1)
		cfg.Engine = engine
		m, err := New(cfg, "latency")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.AllocOnNode(4096, 0)
		r, err := m.Run(func(e prog.Env) {
			if e.ID() == 1 {
				e.Read(base)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(r.ExecTime)
	}
	hwc := measure(config.HWC)
	ppc := measure(config.PPC)
	t.Logf("remote clean read miss: HWC=%d PPC=%d (+%.0f%%)", hwc, ppc,
		100*float64(ppc-hwc)/float64(hwc))
	if hwc < 120 || hwc > 175 {
		t.Errorf("HWC latency %d outside Table 3 neighbourhood (142)", hwc)
	}
	if ppc < 180 || ppc > 255 {
		t.Errorf("PPC latency %d outside Table 3 neighbourhood (212)", ppc)
	}
	rel := float64(ppc-hwc) / float64(hwc)
	if rel < 0.30 || rel < 0 || rel > 0.75 {
		t.Errorf("PPC relative increase %.2f, paper reports 0.49", rel)
	}
}

func TestProducerConsumerMigration(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "migration")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	_, err = m.Run(func(e prog.Env) {
		if e.ID() == 0 {
			e.Write(base) // home node dirties its own line
		}
		e.Barrier()
		if e.ID() == 1 {
			e.Write(base) // remote node takes exclusive ownership
		}
		e.Barrier()
		if e.ID() == 0 {
			e.Read(base) // home reads back: intervention at remote owner
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's write is a remote read-exclusive; home finds the line clean
	// (dir tracks only remote nodes, node 0's dirty copy is collected by
	// the home-side FetchEx snoop).
	if c := m.CCs[0].HandlerCount(protocol.HRemoteReadExHomeUncached); c != 1 {
		t.Errorf("readex at home count = %d, want 1", c)
	}
	// Node 0's read back finds DirtyRemote and forwards an intervention.
	if c := m.CCs[0].HandlerCount(protocol.HBusReadLocalDirtyRemote); c != 1 {
		t.Errorf("local read dirty-remote count = %d, want 1", c)
	}
	if c := m.CCs[1].HandlerCount(protocol.HFetchOwnerFromHome); c != 1 {
		t.Errorf("owner fetch count = %d, want 1", c)
	}
	if c := m.CCs[0].HandlerCount(protocol.HOwnerDataAtHomeRead); c != 1 {
		t.Errorf("owner data at home count = %d, want 1", c)
	}
}

func TestInvalidationFanOut(t *testing.T) {
	cfg := testCfg(4, 1)
	m, err := New(cfg, "inval")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	_, err = m.Run(func(e prog.Env) {
		if e.ID() >= 1 { // nodes 1..3 become sharers
			e.Read(base)
		}
		e.Barrier()
		if e.ID() == 1 { // node 1 upgrades: nodes 2 and 3 get invalidated
			e.Write(base)
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	invals := m.CCs[2].HandlerCount(protocol.HInvalAtSharer) +
		m.CCs[3].HandlerCount(protocol.HInvalAtSharer)
	if invals != 2 {
		t.Errorf("invalidations at sharers = %d, want 2", invals)
	}
	acks := m.CCs[0].HandlerCount(protocol.HInvalAckMore) +
		m.CCs[0].HandlerCount(protocol.HInvalAckLastRemote)
	if acks != 2 {
		t.Errorf("acks at home = %d, want 2", acks)
	}
}

func TestRemoteOwnerToRemoteRequesterForward(t *testing.T) {
	cfg := testCfg(4, 1)
	m, err := New(cfg, "forward")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	_, err = m.Run(func(e prog.Env) {
		if e.ID() == 1 {
			e.Write(base) // node 1 owns dirty
		}
		e.Barrier()
		if e.ID() == 2 {
			e.Read(base) // node 2 reads: home forwards to node 1
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.CCs[0].HandlerCount(protocol.HRemoteReadHomeDirty); c != 1 {
		t.Errorf("home dirty-forward count = %d, want 1", c)
	}
	if c := m.CCs[1].HandlerCount(protocol.HFetchOwnerRemoteReq); c != 1 {
		t.Errorf("owner fetch (remote requester) = %d, want 1", c)
	}
	// Owner sends data directly to node 2 and a sharing write-back home.
	if c := m.CCs[2].HandlerCount(protocol.HDataRespRead); c != 1 {
		t.Errorf("requester data response = %d, want 1", c)
	}
	if c := m.CCs[0].HandlerCount(protocol.HOwnerWBAtHomeRead); c != 1 {
		t.Errorf("sharing write-back at home = %d, want 1", c)
	}
}

func TestEvictionWriteBackReachesHome(t *testing.T) {
	cfg := testCfg(2, 1)
	// Tiny L2 so dirty remote lines get evicted.
	cfg.L2Size = 4 * 1024
	cfg.L2Assoc = 2
	cfg.L1Size = 1024
	cfg.L1Assoc = 2
	m, err := New(cfg, "wb")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(64*1024, 0)
	_, err = m.Run(func(e prog.Env) {
		if e.ID() == 1 {
			// Dirty far more lines than the L2 holds.
			for i := 0; i < 256; i++ {
				e.Write(base + uint64(i*128))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.CCs[0].HandlerCount(protocol.HWriteBackAtHome); c == 0 {
		t.Error("no eviction write-backs arrived at home")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cfg := testCfg(2, 2)
	m, err := New(cfg, "barrier")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	order := make([]int, 0, 8)
	_, err = m.Run(func(e prog.Env) {
		// Stagger arrival with different amounts of work.
		e.Compute(100 * (e.ID() + 1))
		e.Read(base + uint64(e.ID()*128))
		order = append(order, e.ID())
		e.Barrier()
		order = append(order, 100+e.ID())
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("order has %d entries", len(order))
	}
	// All pre-barrier entries precede all post-barrier entries.
	for i, v := range order {
		if i < 4 && v >= 100 {
			t.Fatalf("barrier leaked: %v", order)
		}
		if i >= 4 && v < 100 {
			t.Fatalf("barrier leaked: %v", order)
		}
	}
}

func TestLockMutualExclusionAndTraffic(t *testing.T) {
	cfg := testCfg(2, 2)
	m, err := New(cfg, "locks")
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	maxInside := 0
	total := 0
	_, err = m.Run(func(e prog.Env) {
		for i := 0; i < 5; i++ {
			e.Lock(7)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			total++
			e.Compute(50)
			e.Read(uint64(4096)) // some work inside the section
			inside--
			e.Unlock(7)
			e.Compute(20)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d inside", maxInside)
	}
	if total != 20 {
		t.Fatalf("critical sections executed %d times, want 20", total)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *stats.Run {
		cfg := testCfg(4, 2)
		m, err := New(cfg, "det")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.Alloc(64 * 1024)
		r, err := m.Run(func(e prog.Env) {
			for i := 0; i < 100; i++ {
				a := base + uint64(((i*37+e.ID()*13)%512)*128)
				if (i+e.ID())%3 == 0 {
					e.Write(a)
				} else {
					e.Read(a)
				}
				e.Compute(10)
			}
			e.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime {
		t.Fatalf("nondeterministic: %d vs %d", a.ExecTime, b.ExecTime)
	}
	if a.TotalArrivals() != b.TotalArrivals() {
		t.Fatalf("nondeterministic arrivals: %d vs %d", a.TotalArrivals(), b.TotalArrivals())
	}
}

// sharedStress drives all processors over a shared region with mixed reads
// and writes; used to shake out protocol races across architectures.
func sharedStress(base uint64, iters int) func(prog.Env) {
	return func(e prog.Env) {
		for i := 0; i < iters; i++ {
			a := base + uint64(((i*17+e.ID()*29)%256)*128)
			switch (i + e.ID()) % 4 {
			case 0, 1:
				e.Read(a)
			case 2:
				e.Write(a)
			case 3:
				e.Read(a + 64)
			}
			if i%32 == 31 {
				e.Barrier()
			}
		}
		e.Barrier()
	}
}

func TestAllArchitecturesRunStress(t *testing.T) {
	var hwcTime, ppcTime int64
	for _, arch := range config.Architectures {
		cfg := testCfg(4, 2)
		cfg, err := cfg.WithArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg, "stress")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.Alloc(64 * 1024)
		r, err := m.Run(sharedStress(base, 200))
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		t.Logf("%s: exec=%d arrivals=%d util=%.1f%%", arch, r.ExecTime,
			r.TotalArrivals(), 100*r.AvgUtilization(-1))
		switch arch {
		case "HWC":
			hwcTime = int64(r.ExecTime)
		case "PPC":
			ppcTime = int64(r.ExecTime)
		}
	}
	if ppcTime <= hwcTime {
		t.Errorf("PPC (%d) should be slower than HWC (%d) under load", ppcTime, hwcTime)
	}
}

func TestTwoEngineSplitUsesBothEngines(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.NumEngines = 2
	m, err := New(cfg, "split")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(64 * 1024)
	r, err := m.Run(sharedStress(base, 200))
	if err != nil {
		t.Fatal(err)
	}
	var lpe, rpe uint64
	for i := range r.Controllers {
		lpe += r.Controllers[i].Engines[0].Dispatches
		rpe += r.Controllers[i].Engines[1].Dispatches
	}
	if lpe == 0 || rpe == 0 {
		t.Fatalf("engine dispatches LPE=%d RPE=%d; both should be used", lpe, rpe)
	}
	// The paper's Table 7: most requests go to the RPE (53-64%).
	share := float64(rpe) / float64(lpe+rpe)
	t.Logf("RPE share = %.1f%%", 100*share)
	if share < 0.4 {
		t.Errorf("RPE share %.2f unexpectedly low", share)
	}
}

func TestFirstTouchPlacement(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.Placement = config.PlaceFirstTouch
	m, err := New(cfg, "ft")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(2 * 4096)
	_, err = m.Run(func(e prog.Env) {
		// Each processor touches its own page first.
		e.Read(base + uint64(e.Node()*4096))
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := m.Space.Home(base); h != 0 {
		t.Errorf("page 0 homed on %d, want 0", h)
	}
	if h := m.Space.Home(base + 4096); h != 1 {
		t.Errorf("page 1 homed on %d, want 1", h)
	}
}

func TestFourEngineRegionSplit(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Engine = config.PPC
	cfg.NumEngines = 4
	cfg.Split = config.SplitRegion
	m, err := New(cfg, "4ppc")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(64 * 1024)
	r, err := m.Run(sharedStress(base, 200))
	if err != nil {
		t.Fatal(err)
	}
	if r.Arch != "4PPC" {
		t.Errorf("arch name = %s, want 4PPC", r.Arch)
	}
	// All four engines must see work.
	for e := 0; e < 4; e++ {
		var disp uint64
		for i := range r.Controllers {
			disp += r.Controllers[i].Engines[e].Dispatches
		}
		if disp == 0 {
			t.Errorf("engine %d never dispatched", e)
		}
	}
}

func TestPPCABetweenHWCAndPPC(t *testing.T) {
	times := map[string]int64{}
	for _, arch := range []string{"HWC", "PPCA", "PPC"} {
		cfg := testCfg(4, 2)
		cfg, err := cfg.WithArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg, "kind")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.Alloc(64 * 1024)
		r, err := m.Run(sharedStress(base, 200))
		if err != nil {
			t.Fatal(err)
		}
		times[arch] = int64(r.ExecTime)
	}
	if !(times["HWC"] <= times["PPCA"] && times["PPCA"] <= times["PPC"]) {
		t.Errorf("engine-kind ordering: HWC=%d PPCA=%d PPC=%d", times["HWC"], times["PPCA"], times["PPC"])
	}
}

func TestMeshTopologyEndToEnd(t *testing.T) {
	var xbar, mesh int64
	for _, topo := range []config.Topology{config.TopoCrossbar, config.TopoMesh2D} {
		cfg := testCfg(4, 2)
		cfg.Engine = config.PPC
		cfg.Topology = topo
		m, err := New(cfg, "mesh")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.Alloc(64 * 1024)
		r, err := m.Run(sharedStress(base, 150))
		if err != nil {
			t.Fatal(err)
		}
		if topo == config.TopoCrossbar {
			xbar = int64(r.ExecTime)
		} else {
			mesh = int64(r.ExecTime)
		}
	}
	if xbar == 0 || mesh == 0 {
		t.Fatal("runs missing")
	}
	t.Logf("crossbar=%d mesh=%d (+%.0f%%)", xbar, mesh, 100*float64(mesh-xbar)/float64(xbar))
}

func TestMissLatencyHistogramCollected(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "hist")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	r, err := m.Run(func(e prog.Env) {
		if e.ID() == 1 {
			for i := 0; i < 8; i++ {
				e.Read(base + uint64(i*128))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.MissLatency.Count != 8 {
		t.Fatalf("miss histogram count = %d, want 8", r.MissLatency.Count)
	}
	// Remote clean reads take ~150 cycles plus fill.
	if m := r.MissLatency.Mean(); m < 100 || m > 400 {
		t.Fatalf("mean miss latency %v out of range", m)
	}
}

func TestHandlerBusyCountersCollected(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "hbusy")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	r, err := m.Run(func(e prog.Env) {
		if e.ID() == 1 {
			e.Read(base)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counter("handler:remote read to home (clean)") != 1 {
		t.Fatal("handler count missing")
	}
	if r.Counter("handlerBusy:remote read to home (clean)") == 0 {
		t.Fatal("handler busy-time counter missing")
	}
}
