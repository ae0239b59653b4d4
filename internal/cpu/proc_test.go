package cpu

import (
	"fmt"
	"strings"
	"testing"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// noSync panics on any synchronization: these tests use none.
type noSync struct{}

func (noSync) Barrier(*Proc)   { panic("unexpected barrier") }
func (noSync) Lock(*Proc, int) { panic("unexpected lock") }
func (noSync) Unlock(*Proc, int) {
	panic("unexpected unlock")
}

// testRig is one node's bus with memory and no coherence controller:
// enough to exercise the processor's cache hierarchy timing.
func testRig(t *testing.T, procs int) (*sim.Engine, *config.Config, *memaddr.Space, *smpbus.Bus, []*Proc) {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes = 1
	cfg.ProcsPerNode = procs
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	eng.Limit = 10_000_000
	space := memaddr.NewSpace(&cfg)
	bus := smpbus.New(eng, &cfg, 0, nil)
	var ps []*Proc
	for i := 0; i < procs; i++ {
		ps = append(ps, New(eng, &cfg, i, 0, bus, space, noSync{}, nil))
	}
	return eng, &cfg, space, bus, ps
}

func run(t *testing.T, eng *sim.Engine, ps []*Proc, progs ...func(*prog.Env)) {
	t.Helper()
	for i, p := range ps {
		p.Run(progs[i])
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if done, _ := p.Finished(); !done {
			t.Fatalf("proc %d did not finish", p.ID())
		}
	}
}

// plant places line in p's L2 in state st and records it on the bus, as a
// fill does, and returns the line's L2 way.
func plant(p *Proc, line uint64, st cache.State) cache.Way {
	w, _, _, _ := p.l2.Insert(line, st)
	p.bus.Hold(p.src, line)
	return w
}

// counters returns p's reference statistics by name.
func counters(p *Proc) map[string]uint64 {
	c := map[string]uint64{}
	p.AddCounters(c)
	return c
}

func TestCacheHitHierarchy(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e *prog.Env) {
		e.Read(base)      // cold miss
		e.Read(base)      // L1 hit
		e.Read(base + 8)  // L1 hit (same line)
		e.Write(base)     // needs exclusivity: E->M silent (we were sole reader)
		e.Read(base + 64) // same 128B line: L1 hit
	})
	p := ps[0]
	c := counters(p)
	if c["misses"] != 1 {
		t.Fatalf("misses = %d, want 1", c["misses"])
	}
	if c["l1Hits"] < 3 {
		t.Fatalf("l1 hits = %d, want >= 3", c["l1Hits"])
	}
	if p.Instructions() != 5 {
		t.Fatalf("instructions = %d, want 5", p.Instructions())
	}
}

// TestComputeAdvancesTime checks that compute before an operation delays
// it and counts as instructions, and that compute after the program's last
// operation, which rides on Done, is not modelled: a trailing Compute(500)
// leaves the instructions and the finish time unchanged.
func TestComputeAdvancesTime(t *testing.T) {
	var finishedAt []sim.Time
	for _, trailing := range []int{0, 500} {
		eng, _, space, _, ps := testRig(t, 1)
		base := space.Alloc(4096)
		run(t, eng, ps, func(e *prog.Env) {
			e.Read(base)
			e.Compute(1000)
			e.Read(base)
			e.Compute(trailing)
		})
		if eng.Now() < 1000 {
			t.Fatalf("compute did not advance time: %d", eng.Now())
		}
		if ps[0].Instructions() != 1002 {
			t.Fatalf("trailing compute %d: instructions = %d, want 1002", trailing, ps[0].Instructions())
		}
		_, at := ps[0].Finished()
		finishedAt = append(finishedAt, at)
	}
	if finishedAt[1] != finishedAt[0] {
		t.Fatalf("a trailing Compute(500) moved the finish time from %d to %d", finishedAt[0], finishedAt[1])
	}
}

func TestExclusiveThenSilentUpgrade(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e *prog.Env) {
		e.Read(base)  // installs Exclusive (no other sharers)
		e.Write(base) // E -> M silently, no bus transaction
	})
	if got := bus.Count(smpbus.Upgrade); got != 0 {
		t.Fatalf("silent E->M issued %d upgrades", got)
	}
	if bus.Count(smpbus.Read) != 1 {
		t.Fatalf("reads = %d", bus.Count(smpbus.Read))
	}
}

func TestSharingAndUpgrade(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e *prog.Env) { // proc 0: read then later write
			e.Read(base)
			e.Compute(500)
			e.Write(base)
		},
		func(e *prog.Env) { // proc 1: read (creating sharing)
			e.Compute(100)
			e.Read(base)
			e.Compute(2000)
		})
	// Proc 0's write found the line Shared -> an Upgrade appears.
	if got := bus.Count(smpbus.Upgrade); got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e *prog.Env) {
			e.Write(base) // M in proc 0
			e.Compute(5000)
		},
		func(e *prog.Env) {
			e.Compute(500)
			e.Read(base) // c2c from proc 0's M copy
		})
	// The second read must NOT have gone to memory: one memory access for
	// proc 0's fill, the c2c supplies the other. Check proc 0 downgraded
	// to Owned.
	line := space.Line(base)
	if st := ps[0].L2State(line); st != cache.Owned {
		t.Fatalf("supplier state = %v, want Owned", st)
	}
	if st := ps[1].L2State(line); st != cache.Shared {
		t.Fatalf("reader state = %v, want Shared", st)
	}
	_ = bus
}

func TestOwnedWriterUpgradesInPlace(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e *prog.Env) {
			e.Write(base) // M
			e.Compute(5000)
			e.Write(base) // now Owned (after proc 1's read): upgrade, RequesterOwns
		},
		func(e *prog.Env) {
			e.Compute(500)
			e.Read(base)
			e.Compute(10000)
		})
	line := space.Line(base)
	if st := ps[0].L2State(line); st != cache.Modified {
		t.Fatalf("owner state after re-write = %v, want Modified", st)
	}
	if st := ps[1].L2State(line); st != cache.Invalid {
		t.Fatalf("stale sharer state = %v, want Invalid", st)
	}
	if got := bus.Count(smpbus.Upgrade); got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	eng, cfg, space, bus, ps := testRig(t, 1)
	// Touch more lines than one L2 set holds to force dirty evictions:
	// lines mapping to the same set are L2Size/L2Assoc apart.
	setStride := uint64(cfg.L2Size / cfg.L2Assoc)
	base := space.Alloc(int(setStride) * 8)
	run(t, eng, ps, func(e *prog.Env) {
		for i := 0; i < 6; i++ {
			e.Write(base + uint64(i)*setStride)
		}
	})
	if got := bus.Count(smpbus.WriteBack); got < 1 {
		t.Fatalf("no write-backs after overflowing a set (got %d)", got)
	}
}

func TestL1Inclusion(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e *prog.Env) {
			e.Read(base)
			e.Compute(2000)
			// After proc 1's write invalidated us (including L1), this
			// read must miss again.
			e.Read(base)
		},
		func(e *prog.Env) {
			e.Compute(500)
			e.Write(base)
		})
	if got := counters(ps[0])["misses"]; got != 2 {
		t.Fatalf("proc 0 misses = %d, want 2 (L1 must be back-invalidated)", got)
	}
	_ = bus
}

// TestL1LinkFollowsRefill checks that an L1 way follows its line to the L2
// way a refill places it in. The processor writes a line and then as many
// other lines of the same L2 set as L2 has ways, which evicts the line
// (writing its value back) and the L1 copy with it; reading it again
// refills it into another way, since the LRU way by then is a different
// one. A later L1 hit must read the refill's value, and a write hit must
// change the value LineValue reports.
func TestL1LinkFollowsRefill(t *testing.T) {
	eng, cfg, space, _, ps := testRig(t, 1)
	p := ps[0]
	stride := uint64(cfg.L2Size / cfg.L2Assoc) // same-set lines are this far apart
	line := space.Alloc(int(stride) * (cfg.L2Assoc + 1))

	type step struct {
		addr  uint64
		write bool
		check func()
	}
	var first cache.Way
	var stored, refilled uint64
	steps := []step{{line, true, func() {
		first, _ = p.l2.Lookup(line)
		stored = p.LastWriteValue()
	}}}
	for i := 1; i <= cfg.L2Assoc; i++ {
		steps = append(steps, step{line + uint64(i)*stride, true, nil})
	}
	steps = append(steps,
		step{line, false, func() {
			if st := p.L2State(line); st != cache.Exclusive {
				t.Fatalf("refilled line is %v in L2, want Exclusive", st)
			}
			if w, _ := p.l2.Lookup(line); w == first {
				t.Fatalf("the refill went into the line's first way %v; the test needs another", w)
			}
			if refilled = p.LastReadValue(); refilled != stored {
				t.Fatalf("refill read %#x, want %#x, the value written back at the eviction", refilled, stored)
			}
		}},
		step{line, false, func() {
			if got := p.LastReadValue(); got != refilled {
				t.Fatalf("L1 hit after the refill read %#x, want the refill's %#x", got, refilled)
			}
		}},
		step{line, true, func() {
			if got, want := p.LineValue(line), p.LastWriteValue(); got != want || got == refilled {
				t.Fatalf("after a write hit LineValue = %#x, want the store's %#x (the refill held %#x)", got, want, refilled)
			}
		}},
	)
	var next func(i int)
	next = func(i int) {
		if i == len(steps) {
			return
		}
		s := steps[i]
		p.SyncAccess(s.addr, s.write, sim.Func(func() {
			if s.check != nil {
				s.check()
			}
			next(i + 1)
		}))
	}
	eng.At(0, sim.Func(func() { next(0) }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c := counters(p); c["l1Hits"] != 2 || c["misses"] != uint64(cfg.L2Assoc+2) {
		t.Fatalf("%d L1 hits and %d misses, want 2 and %d", c["l1Hits"], c["misses"], cfg.L2Assoc+2)
	}
	if err := p.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokenInclusionIsReported plants an L1 line whose link names an L2
// way holding another line: CheckInclusion must report it, and an L1 hit
// on it must panic, naming the processor and the line.
func TestBrokenInclusionIsReported(t *testing.T) {
	_, _, space, _, ps := testRig(t, 1)
	p := ps[0]
	line := space.Alloc(4096)
	p.installL1(line, plant(p, line+128, cache.Shared))
	want := fmt.Sprintf("proc 0 holds line %#x in L1", line)
	if err := p.CheckInclusion(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInclusion = %v, want an error containing %q", err, want)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("L1 hit on a line its L2 way does not hold: panic %q, want one containing %q", msg, want)
		}
	}()
	p.access(line, false)
}

func TestSyncAccessCallback(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	p := ps[0]
	fired := false
	eng.At(0, sim.Func(func() {
		p.SyncAccess(base, true, sim.Func(func() { fired = true }))
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("sync access callback never fired")
	}
	if counters(p)["writes"] != 1 {
		t.Fatal("sync access not counted")
	}
}

func TestOverlappingSyncAccessPanics(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	p := ps[0]
	defer func() {
		if recover() == nil {
			t.Error("overlapping SyncAccess did not panic")
		}
	}()
	eng.At(0, sim.Func(func() {
		p.SyncAccess(base, true, sim.Func(func() {}))
		p.SyncAccess(base+128, true, sim.Func(func() {}))
	}))
	_, _ = eng.Run()
}

// TestAddCountersAccumulates checks that AddCounters adds to what the map
// holds, as Machine.collect sums its processors, and names every counter,
// zero ones included.
func TestAddCountersAccumulates(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e *prog.Env) {
		for i := 0; i < 16; i++ {
			e.Read(base + uint64(i*8))
		}
	})
	c := map[string]uint64{"reads": 4}
	ps[0].AddCounters(c)
	ps[0].AddCounters(c)
	if c["reads"] != 36 {
		t.Fatalf("reads = %d after adding 16 twice to 4, want 36", c["reads"])
	}
	for _, name := range []string{"reads", "writes", "l1Hits", "l2Hits", "misses", "upgrades", "busRetries"} {
		if _, ok := c[name]; !ok {
			t.Errorf("counter %q missing", name)
		}
	}
	if len(c) != 7 {
		t.Errorf("%d counters, want 7: %v", len(c), c)
	}
}

// TestRetryOfPresentLinePanics checks that a bus retry finding its line
// already valid panics: the L2 gains a line only through the processor's
// own miss completion, so that state is a model bug, not a cache hit.
func TestRetryOfPresentLinePanics(t *testing.T) {
	for _, tc := range []struct {
		kind smpbus.Kind
		st   cache.State
	}{
		{smpbus.Read, cache.Shared},
		{smpbus.ReadEx, cache.Exclusive},
		{smpbus.Upgrade, cache.Modified},
	} {
		_, _, space, _, ps := testRig(t, 1)
		line := space.Alloc(4096)
		plant(ps[0], line, tc.st)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("retry of %v finding the line %v did not panic", tc.kind, tc.st)
				}
			}()
			ps[0].retryAccess(line, tc.kind)
		}()
	}
}

// wrappingCC defers every remote-home transaction and supplies it 100
// cycles later. On the first one it wraps Done the way the coherence
// controller's mshrFill and finishOp do, counting the wrapper's calls.
type wrappingCC struct {
	eng      *sim.Engine
	bus      *smpbus.Bus
	deferred int
	wrapped  int
}

func (c *wrappingCC) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.HomeLocal {
		return smpbus.SnoopNone
	}
	return smpbus.SnoopDefer
}

func (c *wrappingCC) AcceptDeferred(txn *smpbus.Txn) {
	if c.deferred++; c.deferred == 1 {
		orig := txn.Done
		txn.Done = func(o smpbus.Outcome) {
			c.wrapped++
			orig(o)
		}
	}
	c.eng.After(100, sim.Func(func() { c.bus.Supply(txn, true, true, 0) }))
}

func (c *wrappingCC) CaptureWriteBack(uint64, bool, uint64) {}

// TestMissDoneWrapperLastsOneIssue checks that a Done wrapper the
// controller installs while serving one miss is dropped when the processor
// re-issues its transaction for the next miss.
func TestMissDoneWrapperLastsOneIssue(t *testing.T) {
	cfg := config.Base()
	cfg.Nodes = 2
	cfg.ProcsPerNode = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	eng.Limit = 10_000_000
	space := memaddr.NewSpace(&cfg)
	bus := smpbus.New(eng, &cfg, 0, nil)
	cc := &wrappingCC{eng: eng, bus: bus}
	bus.AttachController(cc)
	p := New(eng, &cfg, 0, 0, bus, space, noSync{}, nil)
	remote := space.AllocOnNode(4096, 1)
	run(t, eng, []*Proc{p}, func(e *prog.Env) {
		e.Read(remote)
		e.Read(remote + uint64(cfg.LineSize))
		e.Read(remote + 2*uint64(cfg.LineSize))
	})
	if cc.deferred != 3 || counters(p)["misses"] != 3 {
		t.Fatalf("%d misses, %d deferred to the controller; want 3 and 3", counters(p)["misses"], cc.deferred)
	}
	if cc.wrapped != 1 {
		t.Fatalf("the first miss's Done wrapper ran %d times over three misses, want 1", cc.wrapped)
	}
}

// recordingCC claims nothing on the bus and records the dirty-remote
// write-backs the direct data path hands it.
type recordingCC struct {
	captured []uint64
}

func (c *recordingCC) Snoop(*smpbus.Txn) smpbus.SnoopResult { return smpbus.SnoopNone }

func (c *recordingCC) AcceptDeferred(txn *smpbus.Txn) {
	panic("recordingCC defers nothing")
}

func (c *recordingCC) CaptureWriteBack(_ uint64, _ bool, data uint64) {
	c.captured = append(c.captured, data)
}

// TestWriteBackCarriesVictimValue checks that evicting a dirty line writes
// back the value the evicted copy held, for a line homed locally (the
// memory image) and remotely (the direct data path), and that a
// write-back the bus bounces is issued again with that same value: the
// copy has left L2, so the write-back is the only record of it.
func TestWriteBackCarriesVictimValue(t *testing.T) {
	for _, home := range []int{0, 1} {
		cfg := config.Base()
		cfg.Nodes = 2
		cfg.ProcsPerNode = 2
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		eng.Limit = 10_000_000
		space := memaddr.NewSpace(&cfg)
		bus := smpbus.New(eng, &cfg, 0, nil)
		cc := &recordingCC{}
		bus.AttachController(cc)
		p := New(eng, &cfg, 0, 0, bus, space, noSync{}, nil)
		other := New(eng, &cfg, 1, 0, bus, space, noSync{}, nil)

		// Fill one L2 set: the dirty victim first (so it is LRU), then
		// clean lines. Same-set lines are L2Size/L2Assoc apart.
		stride := uint64(cfg.L2Size / cfg.L2Assoc)
		victim := space.AllocOnNode(int(stride)*(cfg.L2Assoc+1), home)
		const want = 0xfeed
		p.l2.SetWord(plant(p, victim, cache.Modified), want)
		for i := 1; i < cfg.L2Assoc; i++ {
			plant(p, victim+uint64(i)*stride, cache.Shared)
		}

		// Another processor's read of the victim line is on the bus when
		// the write-back strobes, so the write-back bounces until the read
		// completes. The read claims a local memory response, which keeps
		// it live (not parked with the controller) throughout.
		blocker := &smpbus.Txn{Kind: smpbus.Read, Line: victim, Src: other.src, HomeLocal: true,
			Done: func(smpbus.Outcome) {}}
		eng.At(0, sim.Func(func() {
			bus.Issue(blocker)
			p.installL2(victim+uint64(cfg.L2Assoc)*stride, cache.Exclusive, 0)
		}))
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if st := p.L2State(victim); st != cache.Invalid {
			t.Fatalf("home %d: victim still in L2 as %v", home, st)
		}
		if bus.Retries() == 0 {
			t.Fatalf("home %d: the write-back never bounced", home)
		}
		if bus.Count(smpbus.WriteBack) != bus.Retries()+1 {
			t.Fatalf("home %d: %d write-back strobes for %d bounces, want one more strobe than bounces",
				home, bus.Count(smpbus.WriteBack), bus.Retries())
		}
		if home == 0 {
			if got := bus.MemValue(victim); got != want {
				t.Fatalf("local home: memory holds %#x after the write-back, want %#x", got, want)
			}
			continue
		}
		if len(cc.captured) != 1 || cc.captured[0] != want {
			t.Fatalf("remote home: controller captured %#x, want one write-back of %#x", cc.captured, want)
		}
	}
}

// TestPresenceBitsFollowL2 checks that the bus's presence bits follow each
// processor's L2: a fill sets the line's bit, an eviction clears the
// victim's, and a snoop that invalidates a copy clears its holder's.
// Processor 0 reads L2Assoc+2 lines of one L2 set, evicting the first
// two; processor 1 then writes two of the rest, invalidating them at
// processor 0, and reads a third, which processor 0 supplies.
func TestPresenceBitsFollowL2(t *testing.T) {
	eng, cfg, space, bus, ps := testRig(t, 2)
	stride := uint64(cfg.L2Size / cfg.L2Assoc)
	n := cfg.L2Assoc + 2
	base := space.Alloc(int(stride) * n)
	line := func(i int) uint64 { return base + uint64(i)*stride }
	run(t, eng, ps, func(e *prog.Env) {
		for i := 0; i < n; i++ {
			e.Read(line(i))
		}
	}, func(e *prog.Env) {
		e.Compute(1_000_000) // until processor 0 has read every line
		e.Write(line(2))
		e.Write(line(3))
		e.Read(line(4))
	})
	for _, c := range []struct {
		p    *Proc
		i    int
		want cache.State
	}{
		{ps[0], 0, cache.Invalid}, {ps[0], 1, cache.Invalid}, // evicted
		{ps[0], 2, cache.Invalid}, {ps[0], 3, cache.Invalid}, // invalidated
		{ps[0], 4, cache.Shared}, {ps[0], 5, cache.Exclusive},
		{ps[1], 2, cache.Modified}, {ps[1], 3, cache.Modified}, {ps[1], 4, cache.Shared},
	} {
		if st := c.p.L2State(line(c.i)); st != c.want {
			t.Errorf("proc %d holds line %d %v, want %v", c.p.ID(), c.i, st, c.want)
		}
	}
	for _, p := range ps {
		for i := 0; i < n; i++ {
			if held, valid := bus.Holds(p.src, line(i)), p.L2State(line(i)) != cache.Invalid; held != valid {
				t.Errorf("proc %d line %d: presence bit %v, L2 valid %v", p.ID(), i, held, valid)
			}
		}
		if err := p.CheckPresence(); err != nil {
			t.Error(err)
		}
	}
}
