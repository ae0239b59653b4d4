package machine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
)

// settledGoroutines returns the goroutine count once it has fallen to want,
// or after five seconds. A goroutine that has returned stays counted until
// the runtime reaps it, which on a loaded host can take many scheduler
// passes.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// runRecovered runs program on m and returns its error, or the recovered
// panic value flattened to an error.
func runRecovered(m *Machine, program func(*prog.Env)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, err = m.Run(program)
	return err
}

// TestRunReleasesPrograms checks that no exit path of Machine.Run leaves a
// program coroutine parked: after a successful run and runs failing by time
// limit, deadlock, and a program panic, serial and sharded, the goroutine
// count is back where it started.
func TestRunReleasesPrograms(t *testing.T) {
	spin := func(base uint64) func(*prog.Env) {
		return func(e *prog.Env) {
			for {
				e.Read(base)
				e.Compute(100)
			}
		}
	}
	cases := []struct {
		name    string
		limit   sim.Time
		program func(base uint64) func(*prog.Env)
		wantErr string
	}{
		{"success", 50_000_000, func(base uint64) func(*prog.Env) {
			return func(e *prog.Env) {
				e.Write(base + uint64(e.ID())*8)
				e.Barrier()
				e.Read(base)
			}
		}, ""},
		{"time limit", 5_000, spin, "time limit"},
		{"deadlock", 50_000_000, func(base uint64) func(*prog.Env) {
			return func(e *prog.Env) {
				e.Read(base)
				if e.ID() == 0 {
					e.Barrier() // nobody else joins
				}
			}
		}, "never finished"},
		{"program panic", 50_000_000, func(base uint64) func(*prog.Env) {
			return func(e *prog.Env) {
				e.Read(base)
				if e.ID() == 1 {
					panic("workload bug")
				}
				e.Barrier()
			}
		}, "workload bug"},
	}
	before := runtime.NumGoroutine()
	for _, shards := range []int{1, 2} {
		for _, tc := range cases {
			cfg := testCfg(2, 2)
			cfg.SimShards = shards
			cfg.SimLimit = tc.limit
			m, err := New(cfg, "release")
			if err != nil {
				t.Fatal(err)
			}
			base := m.Space.Alloc(4096)
			err = runRecovered(m, tc.program(base))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("shards=%d %s: %v", shards, tc.name, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("shards=%d %s: error %v, want one containing %q", shards, tc.name, err, tc.wantErr)
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("shards=%d %s: %d goroutines after the run, %d before", shards, tc.name, n, before)
			}
		}
	}
}

// TestProgramPanicSurfacesFromRun checks that a panic in a workload body
// comes out of Machine.Run on the caller's goroutine with its value intact,
// where harnesses recover and classify it like any model panic.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	m, err := New(testCfg(2, 1), "panic")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(4096)
	var got interface{}
	func() {
		defer func() { got = recover() }()
		_, _ = m.Run(func(e *prog.Env) {
			e.Read(base)
			if e.ID() == 1 {
				panic(fmt.Errorf("verify: bad result on proc %d", e.ID()))
			}
		})
	}()
	err, ok := got.(error)
	if !ok || err.Error() != "verify: bad result on proc 1" {
		t.Fatalf("recovered %#v, want the program's error value", got)
	}
	if doc := ClassifyFailure(got); doc == nil || doc.Message != "verify: bad result on proc 1" {
		t.Fatalf("ClassifyFailure = %+v", doc)
	}
}

// TestL1HitsDoNotAllocate pins the cost of the program handoff: on a 1x1
// machine, a program re-reading one L1-resident line allocates nothing per
// reference once the line is cached, so doubling the reference count must
// not change the allocations of the whole run.
func TestL1HitsDoNotAllocate(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			m, err := New(testCfg(1, 1), "alloc")
			if err != nil {
				t.Fatal(err)
			}
			base := m.Space.Alloc(4096)
			if _, err := m.Run(func(e *prog.Env) {
				for i := 0; i < n; i++ {
					e.Read(base)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 5000
	small, large := allocs(n), allocs(2*n)
	if perRef := (large - small) / n; perRef > 0.001 {
		t.Fatalf("%.4f allocations per L1 hit (%v allocs at %d refs, %v at %d), want 0",
			perRef, small, n, large, 2*n)
	}
}

// missCase is one miss stream of TestMissesDoNotAllocate and
// BenchmarkMissPath, on a nodes×1 machine with a 64 KB L2 whose lines are
// homed on node home. Without steps, processor 0 sweeps twice as many
// distinct lines as its L2 holds, so every access misses in both caches:
// reads miss without writing a line back, writes evict a dirty line each.
// With steps, every round runs each step over one batch of lines, all
// processors meeting at a barrier after each step; the batch fits in every
// cache, so each access in a round is a protocol transaction.
type missCase struct {
	name          string
	nodes, home   int
	write, robust bool
	steps         []missStep
}

// missStep is one step of a round: procs each read, or write, the batch.
type missStep struct {
	procs []int
	write bool
}

var missCases = []missCase{
	{name: "local", nodes: 1, home: 0},
	{name: "remote", nodes: 2, home: 1},
	// Node 2 writes the batch, then node 0's reads are three-hop misses
	// served by node 2; from the second round node 2's writes invalidate
	// node 0's copies.
	{name: "three-hop", nodes: 3, home: 1, steps: []missStep{
		{procs: []int{2}, write: true}, {procs: []int{0}}}},
	// Nodes 0 and 3 read the batch (the later reader may wait on the
	// home's open op), then node 2's read-exclusives invalidate both.
	{name: "readex-invalidate", nodes: 4, home: 1, steps: []missStep{
		{procs: []int{0, 3}}, {procs: []int{2}, write: true}}},
	{name: "dirty-eviction", nodes: 2, home: 1, write: true},
	{name: "robust-timeout", nodes: 2, home: 1, robust: true},
}

// stream builds the case's machine and program. A sweep makes size misses,
// and once size reaches the sweep's length the caches and the end-of-run
// checks cost the same whatever size is. Steps run rounds rounds over a
// batch of size lines. The time limit allows 10,000 cycles per access and
// the wait for the last Robust timeout.
func (c missCase) stream(tb testing.TB, size, rounds int) (*Machine, func(*prog.Env), int) {
	tb.Helper()
	cfg := testCfg(c.nodes, 1)
	if c.robust {
		cfg = cfg.WithRobustness()
	}
	cfg.L2Size = 64 << 10
	accesses := size
	if c.steps != nil {
		accesses = 0
		for _, st := range c.steps {
			accesses += len(st.procs) * size * rounds
		}
	}
	cfg.SimLimit = sim.Time(accesses+1)*10_000 + config.RobustRequestTimeout
	m, err := New(cfg, "misses")
	if err != nil {
		tb.Fatal(err)
	}
	stride := uint64(m.Cfg.LineSize)
	if c.steps == nil {
		lines := 2 * m.Cfg.L2Size / m.Cfg.LineSize
		base := m.Space.AllocOnNode(lines*m.Cfg.LineSize, c.home)
		return m, func(e *prog.Env) {
			if e.ID() != 0 {
				return
			}
			for i := 0; i < size; i++ {
				if a := base + uint64(i%lines)*stride; c.write {
					e.Write(a)
				} else {
					e.Read(a)
				}
			}
		}, accesses
	}
	base := m.Space.AllocOnNode(size*m.Cfg.LineSize, c.home)
	return m, func(e *prog.Env) {
		for r := 0; r < rounds; r++ {
			for _, st := range c.steps {
				if slices.Contains(st.procs, e.ID()) {
					for i := 0; i < size; i++ {
						if a := base + uint64(i)*stride; st.write {
							e.Write(a)
						} else {
							e.Read(a)
						}
					}
				}
				e.Barrier()
			}
		}
	}, accesses
}

// allocsPerMiss returns the allocations one miss adds to the case's run. A
// sweep's cost is the difference between sweeps of 8192 and 4096 misses,
// over 4096. A steps run's cost is the difference between 8 and 4 rounds
// over one batch of 256 lines, over the extra misses: the extra rounds
// touch no new page, and a barrier allocates nothing.
func (c missCase) allocsPerMiss(t *testing.T) float64 {
	run := func(size, rounds int) (float64, int) {
		var misses int
		allocs := testing.AllocsPerRun(1, func() {
			m, program, n := c.stream(t, size, rounds)
			if _, err := m.Run(program); err != nil {
				t.Fatal(err)
			}
			misses = n
		})
		return allocs, misses
	}
	if c.steps == nil {
		small, n1 := run(4096, 0)
		large, n2 := run(8192, 0)
		return (large - small) / float64(n2-n1)
	}
	a1, n1 := run(256, 4)
	a2, n2 := run(256, 8)
	return (a2 - a1) / float64(n2-n1)
}

// TestMissesDoNotAllocate pins the cost of the miss path. A processor
// re-issues one bus transaction for its in-flight miss and recycles its
// write-backs; the bus, controller engines and network schedule callbacks
// bound once per object; and the controller recycles its work items,
// messages, home ops, MSHR entries, continuations and bus transactions, so
// a miss allocates nothing: served by local memory, by a remote home, by a
// third node holding the line dirty, with invalidations of remote sharers,
// with a dirty eviction on the direct data path, or with a Robust timeout
// armed. Each case allows 0.01 per miss for the runtime's own occasional
// allocations, which the race detector makes more frequent.
func TestMissesDoNotAllocate(t *testing.T) {
	const slack = 0.01
	for _, c := range missCases {
		if perMiss := c.allocsPerMiss(t); perMiss > slack {
			t.Errorf("%s: %.4f allocations per miss, want 0", c.name, perMiss)
		}
	}
}

// TestBarriersDoNotAllocate pins the cost of a barrier round on a 3x1
// machine: each processor's arrival is bound once, the parked list keeps
// its array, and each release is the processor's own bound resume, so
// doubling the rounds must not change the allocations of the whole run.
func TestBarriersDoNotAllocate(t *testing.T) {
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			m, err := New(testCfg(3, 1), "barriers")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(func(e *prog.Env) {
				for i := 0; i < rounds; i++ {
					e.Barrier()
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const rounds = 200
	small, large := allocs(rounds), allocs(2*rounds)
	if perRound := (large - small) / rounds; perRound > 0.01 {
		t.Fatalf("%.4f allocations per barrier round (%v allocs at %d rounds, %v at %d), want 0",
			perRound, small, rounds, large, 2*rounds)
	}
}

// BenchmarkMissPath reports the host time and allocations of one miss in
// each stream of TestMissesDoNotAllocate. The steps streams run as many
// rounds as b.N needs, so their figures include the barriers.
func BenchmarkMissPath(b *testing.B) {
	for _, c := range missCases {
		b.Run(c.name, func(b *testing.B) {
			size, rounds := b.N, 0
			if c.steps != nil {
				size = 256
				perRound := 0
				for _, st := range c.steps {
					perRound += len(st.procs) * size
				}
				rounds = (b.N + perRound - 1) / perRound
			}
			m, program, _ := c.stream(b, size, rounds)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := m.Run(program); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkL1Hit reports the host time and allocations of one L1 hit: the
// program of TestL1HitsDoNotAllocate re-reads one L1-resident line b.N
// times on a 1x1 machine, so the figure is the program handoff and the
// processor's hit path, with nothing below L1 (one cold miss per run).
func BenchmarkL1Hit(b *testing.B) {
	cfg := testCfg(1, 1)
	cfg.SimLimit = sim.Time(b.N+1)*cfg.L1HitTime + 10_000
	m, err := New(cfg, "l1hit")
	if err != nil {
		b.Fatal(err)
	}
	base := m.Space.Alloc(4096)
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(func(e *prog.Env) {
		for i := 0; i < n; i++ {
			e.Read(base)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// newMachineBytes returns the fewest bytes any of three builds of cfg
// allocated (the minimum discounts allocation by the runtime itself).
func newMachineBytes(t *testing.T, cfg config.Config) uint64 {
	t.Helper()
	least := uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(cfg, "build")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestNewMachineAllocCeiling pins what building the paper's 16x4 HWC
// machine allocates: about 0.77 MB, mostly one 4-byte index entry per
// cache set, because caches allocate a set's ways on its first fill. With
// every way allocated up front a build took 10.7 MB, so the ceiling, 25%
// above today's figure, fails if eager cache arrays come back.
func TestNewMachineAllocCeiling(t *testing.T) {
	const ceiling = 965_000
	if n := newMachineBytes(t, testCfg(16, 4)); n > ceiling {
		t.Fatalf("building 16x4 HWC allocated %d bytes, want at most %d", n, ceiling)
	}
}

// TestRobustBuildObjectCeiling pins how many objects building the robust
// 4x2 machine allocates, the build every chaos cell makes: 146, because
// the bus, network and directories hold their resources by value and size
// their tables once (243 when each resource and table was allocated on
// its own), and processors, protocol engines and NI ports schedule typed
// actions on themselves instead of binding callbacks (186 when they
// bound them). The ceiling, 10% above today's figure, fails if those
// allocations come back.
func TestRobustBuildObjectCeiling(t *testing.T) {
	const ceiling = 160
	cfg := testCfg(4, 2).WithRobustness()
	objects := testing.AllocsPerRun(3, func() {
		if _, err := New(cfg, "build"); err != nil {
			t.Fatal(err)
		}
	})
	if objects > ceiling {
		t.Fatalf("building the robust 4x2 machine allocated %v objects, want at most %d", objects, ceiling)
	}
}

// BenchmarkNewMachine reports the host time and allocations of building
// the paper's 16x4 HWC machine and the robust 4x2 machine that every
// chaos schedule builds.
func BenchmarkNewMachine(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  config.Config
	}{{"16x4-HWC", testCfg(16, 4)}, {"4x2-robust", testCfg(4, 2).WithRobustness()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(bc.cfg, "build"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
