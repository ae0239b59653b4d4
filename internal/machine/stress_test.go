package machine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/directory"
	"ccnuma/internal/prog"
)

// dirEntryNone returns an empty (NoRemote) directory entry.
func dirEntryNone() directory.Entry { return directory.Entry{} }

// randomProgram builds a deterministic pseudo-random SPMD program from a
// seed: mixed reads, writes, upgrades-by-rewrite, lock sections, and
// barriers over a shared region sized to force evictions and every
// protocol path. Each processor derives its own stream from (seed, id), so
// one seed fixes the whole run.
func randomProgram(seed int64, base uint64, lines, iters, lineSize int) func(*prog.Env) {
	return func(e *prog.Env) {
		rng := rand.New(rand.NewSource(seed*1000 + int64(e.ID())))
		for i := 0; i < iters; i++ {
			a := base + uint64(rng.Intn(lines)*lineSize)
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				e.Read(a)
			case 4, 5:
				e.Write(a)
			case 6:
				e.Read(a)
				e.Write(a) // read-modify-write: upgrade path
			case 7:
				l := rng.Intn(4)
				e.Lock(l)
				e.Read(a)
				e.Write(a)
				e.Unlock(l)
			case 8:
				e.Compute(rng.Intn(200))
			case 9:
				e.Read(a + 64)
			}
			// Barriers are structural (same count on every processor).
			if i%64 == 63 {
				e.Barrier()
			}
		}
		e.Barrier()
	}
}

// TestProtocolStressSeeds tortures the full protocol across seeds,
// architectures, and split policies; every run ends with the global
// coherence invariant sweep inside Machine.Run.
func TestProtocolStressSeeds(t *testing.T) {
	type combo struct {
		arch  string
		split config.SplitPolicy
	}
	combos := []combo{
		{"HWC", config.SplitLocalRemote},
		{"PPC", config.SplitLocalRemote},
		{"2HWC", config.SplitLocalRemote},
		{"2PPC", config.SplitLocalRemote},
		{"2PPC", config.SplitRoundRobin},
		{"PPCA", config.SplitLocalRemote},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cb := range combos {
		for _, seed := range seeds {
			cb, seed := cb, seed
			t.Run(fmt.Sprintf("%s-%v-seed%d", cb.arch, cb.split, seed), func(t *testing.T) {
				cfg := testCfg(4, 2)
				var err error
				cfg, err = cfg.WithArch(cb.arch)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Split = cb.split
				// Small caches force evictions and write-back races.
				cfg.L2Size = 16 * 1024
				cfg.L1Size = 2 * 1024
				cfg.L1Assoc, cfg.L2Assoc = 2, 2
				m, err := New(cfg, "stress")
				if err != nil {
					t.Fatal(err)
				}
				base := m.Space.Alloc(256 * cfg.LineSize)
				if _, err := m.Run(randomProgram(seed, base, 256, 300, cfg.LineSize)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestProtocolStressFourEngines tortures the region-split extension.
func TestProtocolStressFourEngines(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Engine = config.PPC
	cfg.NumEngines = 4
	cfg.Split = config.SplitRegion
	cfg.L2Size = 16 * 1024
	cfg.L1Size = 2 * 1024
	cfg.L1Assoc, cfg.L2Assoc = 2, 2
	m, err := New(cfg, "stress4")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(256 * cfg.LineSize)
	if _, err := m.Run(randomProgram(7, base, 256, 300, cfg.LineSize)); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolStressSmallLines tortures the Figure 7 configuration (32-byte
// lines quadruple the transaction rate).
func TestProtocolStressSmallLines(t *testing.T) {
	cfg := testCfg(2, 2)
	cfg.LineSize = 32
	cfg.L2Size = 8 * 1024
	cfg.L1Size = 1024
	cfg.L1Assoc, cfg.L2Assoc = 2, 2
	m, err := New(cfg, "stress32")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(256 * cfg.LineSize)
	if _, err := m.Run(randomProgram(11, base, 256, 400, cfg.LineSize)); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceCheckerDetectsViolations plants an inconsistency and
// verifies the sweep reports it (guarding the guard).
func TestCoherenceCheckerDetectsViolations(t *testing.T) {
	cfg := testCfg(2, 1)
	m, err := New(cfg, "guard")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.AllocOnNode(4096, 0)
	// Run a legitimate program first.
	_, err = m.Run(func(e *prog.Env) {
		if e.ID() == 1 {
			e.Write(base)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Now corrupt the home directory behind the protocol's back: claim the
	// line is clean while node 1 holds it Modified.
	m.Dirs[0].Write(m.Eng.Now(), base, dirEntryNone())
	if err := m.CheckCoherence(); err == nil {
		t.Fatal("checker missed a planted dirty-without-directory violation")
	}
}

// TestCoherenceCheckerReportsLowestLine plants violations on two lines and
// requires every sweep to name the lower one. The higher line is written
// first into the same L2 set, so it comes first in cache order too.
func TestCoherenceCheckerReportsLowestLine(t *testing.T) {
	m, err := New(testCfg(2, 1), "guard")
	if err != nil {
		t.Fatal(err)
	}
	setSpan := m.Cfg.L2Size / m.Cfg.L2Assoc // bytes between lines of one set
	lo := m.Space.AllocOnNode(setSpan+m.Cfg.LineSize, 0)
	hi := lo + uint64(setSpan)
	if _, err := m.Run(func(e *prog.Env) {
		if e.ID() == 1 {
			e.Write(hi)
			e.Write(lo)
		}
	}); err != nil {
		t.Fatal(err)
	}
	m.Dirs[0].Write(m.Eng.Now(), lo, dirEntryNone())
	m.Dirs[0].Write(m.Eng.Now(), hi, dirEntryNone())
	want := fmt.Sprintf("line %#x ", lo)
	for i := 0; i < 20; i++ {
		err := m.CheckCoherence()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("sweep %d: error %v, want one naming %#x", i, err, lo)
		}
	}
}

// TestCoherenceCheckerReportsPresenceDrift clears the presence bit of a
// line a processor holds, then sets one for a line a processor does not
// hold: either drift, a missed Bus.Drop or Bus.Hold, would make strobes
// skip a holder or snoop a cache for nothing, and the sweep must name the
// processor and the line.
func TestCoherenceCheckerReportsPresenceDrift(t *testing.T) {
	m, err := New(testCfg(2, 2), "guard")
	if err != nil {
		t.Fatal(err)
	}
	line := m.Space.AllocOnNode(4096, 0)
	other := line + uint64(m.Cfg.LineSize)
	if _, err := m.Run(func(e *prog.Env) {
		if e.ID() == 1 {
			e.Read(line)
		}
	}); err != nil {
		t.Fatal(err)
	}
	bus := m.Buses[0]
	for _, c := range []struct {
		name  string
		drift func()
		mend  func()
		want  string
	}{
		{"dropped bit", func() { bus.Drop(1, line) }, func() { bus.Hold(1, line) },
			fmt.Sprintf("proc 1 holds line %#x E in L2, but its presence bit is clear", line)},
		{"stale bit", func() { bus.Hold(0, other) }, func() { bus.Drop(0, other) },
			fmt.Sprintf("proc 0's presence bit for line %#x is set, but its L2 does not hold the line", other)},
	} {
		c.drift()
		if err := m.CheckCoherence(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckCoherence = %v, want an error containing %q", c.name, err, c.want)
		}
		c.mend()
		if err := m.CheckCoherence(); err != nil {
			t.Errorf("%s mended: %v", c.name, err)
		}
	}
}

// TestL2ConflictsKeepL1Included runs a processor over lines that share a
// set of a direct-mapped L2 and fit one set of the 4-way L1, so every L2
// fill evicts a line that L1 still holds. The fill must take that line out
// of L1 as well; Machine.Run checks each processor's inclusion after the
// run (CheckCoherence), which fails if L1 kept any of them.
func TestL2ConflictsKeepL1Included(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.L2Size = 64 * 1024
	cfg.L2Assoc = 1
	m, err := New(cfg, "conflicts")
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(cfg.L2Size) // lines this far apart share an L2 set and an L1 set
	base := m.Space.AllocOnNode(cfg.L1Assoc*cfg.L2Size, 1)
	r, err := m.Run(func(e *prog.Env) {
		if e.ID() == 0 {
			for i := 0; i < cfg.L1Assoc; i++ {
				e.Write(base + uint64(i)*span)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Counters["misses"]; got != uint64(cfg.L1Assoc) {
		t.Fatalf("%d misses, want %d", got, cfg.L1Assoc)
	}
}

// TestProtocolStressDynamicSplit tortures the shortest-queue split.
func TestProtocolStressDynamicSplit(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Engine = config.PPC
	cfg.NumEngines = 3
	cfg.Split = config.SplitDynamic
	cfg.L2Size = 16 * 1024
	cfg.L1Size = 2 * 1024
	cfg.L1Assoc, cfg.L2Assoc = 2, 2
	m, err := New(cfg, "stressdyn")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(256 * cfg.LineSize)
	if _, err := m.Run(randomProgram(13, base, 256, 300, cfg.LineSize)); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolStressMesh tortures the protocol over the 2-D mesh topology.
func TestProtocolStressMesh(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Engine = config.PPC
	cfg.Topology = config.TopoMesh2D
	cfg.L2Size = 16 * 1024
	cfg.L1Size = 2 * 1024
	cfg.L1Assoc, cfg.L2Assoc = 2, 2
	m, err := New(cfg, "stressmesh")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(256 * cfg.LineSize)
	if _, err := m.Run(randomProgram(17, base, 256, 300, cfg.LineSize)); err != nil {
		t.Fatal(err)
	}
}
