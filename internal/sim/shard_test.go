package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// --- toy model -----------------------------------------------------------
//
// A miniature message-passing machine exercising every cross-shard
// mechanism the real model uses: DeferTo publications with latency at or
// past the lookahead, same-cycle bursts, Fence-mediated shared state with
// cross-engine scheduling from fence bodies, and per-node seeded RNG
// streams. Run serially (all nodes on one engine) and sharded (nodes
// mapped onto cluster shards) it must produce identical per-node logs,
// identical fence order, identical executed counts, and identical final
// time — the same property the golden determinism tests pin for the full
// machine.

type toyNode struct {
	id     int
	eng    *Engine
	sim    *toySim
	rng    *rand.Rand
	state  uint64
	log    []uint64
	budget int
}

type toySim struct {
	look     Time
	nodes    []*toyNode
	cluster  *Cluster
	serial   *Engine
	fenceLog []string
}

func newToySim(nodes, shards int, look Time, seed int64) *toySim {
	s := &toySim{look: look}
	engs := make([]*Engine, nodes)
	if shards <= 1 {
		s.serial = NewEngine()
		for i := range engs {
			engs[i] = s.serial
		}
	} else {
		s.cluster = NewCluster(shards, look)
		for i := range engs {
			engs[i] = s.cluster.Shard(i * shards / nodes)
		}
	}
	for i := 0; i < nodes; i++ {
		s.nodes = append(s.nodes, &toyNode{
			id:     i,
			eng:    engs[i],
			sim:    s,
			rng:    rand.New(rand.NewSource(seed + int64(i))),
			budget: 150,
		})
	}
	for _, n := range s.nodes {
		n := n
		n.eng.At(Time(n.id%3), Func(n.work))
	}
	return s
}

func (s *toySim) run() (Time, error) {
	if s.cluster != nil {
		return s.cluster.Run(0, nil)
	}
	return s.serial.Run()
}

func (s *toySim) executed() uint64 {
	if s.cluster != nil {
		return s.cluster.Executed()
	}
	return s.serial.Executed()
}

func (n *toyNode) work() {
	n.state = n.state*1099511628211 + uint64(n.eng.Now())<<8 + uint64(n.id)
	for k := n.rng.Intn(3); k > 0; k-- {
		dst := n.sim.nodes[n.rng.Intn(len(n.sim.nodes))]
		delay := n.sim.look + Time(n.rng.Intn(6))
		n.send(dst, delay, n.state^uint64(dst.id))
	}
	if n.budget > 0 {
		n.budget--
		n.eng.After(Time(n.rng.Intn(4)+1), Func(n.work))
	}
	if n.rng.Intn(8) == 0 {
		at := n.eng.Now()
		peer := n.sim.nodes[(n.id+1)%len(n.sim.nodes)]
		// Fence in tail position, like machine.Barrier: mutate shared
		// state, schedule cross-engine at or past the lookahead horizon,
		// and schedule immediately on the (parked) posting engine.
		n.eng.Fence(func() {
			n.sim.fenceLog = append(n.sim.fenceLog, fmt.Sprintf("%d@%d", n.id, at))
			peer.eng.At(at+n.sim.look+1, Func(peer.poke))
			n.eng.At(at, Func(func() { n.state ^= 0x5bd1e995 }))
		})
	}
}

func (n *toyNode) poke() {
	n.state ^= 0x9e3779b97f4a7c15
	n.log = append(n.log, 0xF0F0<<32|uint64(n.eng.Now()))
}

func (n *toyNode) send(dst *toyNode, delay Time, payload uint64) {
	arr := n.eng.Now() + delay
	n.eng.DeferTo(dst.eng, Func(func() {
		dst.eng.At(arr, Func(func() { dst.deliver(payload) }))
	}))
}

func (n *toyNode) deliver(payload uint64) {
	n.log = append(n.log, payload*31+uint64(n.eng.Now()))
	n.state = n.state*31 + payload
	if n.rng.Intn(4) == 0 && n.budget > 0 {
		n.budget--
		dst := n.sim.nodes[n.rng.Intn(len(n.sim.nodes))]
		n.send(dst, n.sim.look+Time(n.rng.Intn(3)), n.state)
	}
}

type toyResult struct {
	states   []uint64
	logs     [][]uint64
	fenceLog []string
	executed uint64
	final    Time
}

func runToy(t *testing.T, nodes, shards int, look Time, seed int64) toyResult {
	t.Helper()
	s := newToySim(nodes, shards, look, seed)
	final, err := s.run()
	if err != nil {
		t.Fatalf("nodes=%d shards=%d seed=%d: %v", nodes, shards, seed, err)
	}
	r := toyResult{fenceLog: s.fenceLog, executed: s.executed(), final: final}
	for _, n := range s.nodes {
		r.states = append(r.states, n.state)
		r.logs = append(r.logs, n.log)
	}
	return r
}

// TestShardMatchesSerial is the seeded cross-shard ordering test: for a
// grid of node/shard/seed combinations the sharded run must reproduce the
// serial run exactly — per-node delivery logs, fence resolution order,
// executed event count, and final simulated time.
func TestShardMatchesSerial(t *testing.T) {
	for _, nodes := range []int{2, 4, 6} {
		for _, shards := range []int{2, 3, 4} {
			if shards > nodes {
				continue
			}
			for seed := int64(1); seed <= 5; seed++ {
				want := runToy(t, nodes, 1, 14, seed)
				got := runToy(t, nodes, shards, 14, seed)
				name := fmt.Sprintf("nodes=%d shards=%d seed=%d", nodes, shards, seed)
				if !reflect.DeepEqual(got.states, want.states) {
					t.Errorf("%s: states diverged: %v vs serial %v", name, got.states, want.states)
				}
				if !reflect.DeepEqual(got.logs, want.logs) {
					t.Errorf("%s: delivery logs diverged", name)
				}
				if !reflect.DeepEqual(got.fenceLog, want.fenceLog) {
					t.Errorf("%s: fence order diverged: %v vs serial %v", name, got.fenceLog, want.fenceLog)
				}
				if got.executed != want.executed {
					t.Errorf("%s: executed %d vs serial %d", name, got.executed, want.executed)
				}
				if got.final != want.final {
					t.Errorf("%s: final time %d vs serial %d", name, got.final, want.final)
				}
			}
		}
	}
}

// TestShardRunToRunStable re-runs one sharded configuration repeatedly and
// requires identical results every time; under -race this doubles as the
// shard-barrier stress test (workers, fences, drains, and the coordinator
// all racing across windows).
func TestShardRunToRunStable(t *testing.T) {
	want := runToy(t, 6, 4, 14, 99)
	for i := 0; i < 8; i++ {
		got := runToy(t, 6, 4, 14, 99)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged from first sharded run", i)
		}
	}
}

// TestShardHorizonBoundary pins the window-edge rule: an event landing
// exactly at the lookahead horizon belongs to the next window.
func TestShardHorizonBoundary(t *testing.T) {
	c := NewCluster(2, 10)
	var order []string
	src, dst := c.Shard(0), c.Shard(1)
	src.At(0, Func(func() {
		src.DeferTo(dst, Func(func() {
			dst.At(10, Func(func() { order = append(order, "recv@10") })) // exactly at horizon
		}))
	}))
	// Also at the horizon, on the destination shard: scheduled during
	// setup, so serially it precedes the drained delivery at the same
	// cycle — rank order must reproduce that.
	dst.At(10, Func(func() { order = append(order, "local@10") }))
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"local@10", "recv@10"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	// Window 1 covers [0,10), window 2 starts at 10: the horizon events
	// must not have run in window 1.
	if c.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", c.Windows())
	}
	if c.CrossSends() != 1 {
		t.Fatalf("cross sends = %d, want 1", c.CrossSends())
	}
}

// TestShardZeroLatencySendRejected pins the lookahead guard: a drained
// cross-shard send that schedules below the window horizon (for example a
// zero-latency send) must panic rather than silently reorder.
func TestShardZeroLatencySendRejected(t *testing.T) {
	c := NewCluster(2, 10)
	src, dst := c.Shard(0), c.Shard(1)
	src.At(5, Func(func() {
		arr := src.Now() // zero-latency: below the horizon of window [5,15)
		src.DeferTo(dst, Func(func() {
			dst.At(arr, Func(func() {}))
		}))
	}))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("zero-latency cross-shard send did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead violated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(0, nil)
}

// TestShardDrainOrder pins end-of-window drain ordering: publications from
// several source shards into one destination, arriving at the same cycle,
// must replay in the serial order of their send sites (here: setup order,
// then per-event call order).
func TestShardDrainOrder(t *testing.T) {
	c := NewCluster(3, 10)
	var got []int
	dst := c.Shard(0)
	// Setup order fixes serial order: shard 1's event is scheduled before
	// shard 2's; both run at t=0 in window 1 and send two back-to-back
	// messages arriving at the same cycle.
	for _, src := range []int{1, 2} {
		src := src
		e := c.Shard(src)
		e.At(0, Func(func() {
			for k := 0; k < 2; k++ {
				tag := src*10 + k
				e.DeferTo(dst, Func(func() {
					dst.At(12, Func(func() { got = append(got, tag) }))
				}))
			}
		}))
	}
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 11, 20, 21}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order %v, want %v", got, want)
	}
}

// TestShardFenceOrder pins fence resolution order across shards: fences
// posted in one window resolve in reconstructed serial order (earlier
// simulated time first; same time by setup order), not report-arrival
// order.
func TestShardFenceOrder(t *testing.T) {
	c := NewCluster(4, 100)
	var got []int
	// All four fences land in a single window [0,100); shard 3 posts at
	// the earliest simulated time and must resolve first.
	times := []Time{5, 5, 7, 2}
	for s := 0; s < 4; s++ {
		s := s
		e := c.Shard(s)
		e.At(times[s], Func(func() {
			e.Fence(func() { got = append(got, s) })
		}))
	}
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fence order %v, want %v", got, want)
	}
}

// TestShardScheduleAfterFenceRejected pins the Fence tail-position
// contract: an event scheduling on its own engine after posting a fence
// panics.
func TestShardScheduleAfterFenceRejected(t *testing.T) {
	c := NewCluster(2, 10)
	e := c.Shard(0)
	e.At(0, Func(func() {
		e.Fence(func() {})
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "after posting a Fence") {
				t.Errorf("expected tail-position panic, got %v", r)
			}
		}()
		e.At(5, Func(func() {}))
	}))
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShardPanicPropagates pins crash behavior: a panic inside an event on
// a worker shard is re-thrown, with its original value, on the goroutine
// that called Run — the same observable behavior as a serial run, which
// chaos failure classification depends on.
func TestShardPanicPropagates(t *testing.T) {
	c := NewCluster(2, 10)
	type boom struct{ n int }
	c.Shard(1).At(3, Func(func() { panic(boom{n: 7}) }))
	c.Shard(0).At(1, Func(func() {}))
	defer func() {
		r := recover()
		if b, ok := r.(boom); !ok || b.n != 7 {
			t.Fatalf("expected boom{7} panic, got %v", r)
		}
	}()
	c.Run(0, nil)
}

// TestShardLimitMatchesSerial pins the time-limit path: a sharded run must
// execute exactly the events a serial run executes before the limit and
// fail with the identical error.
func TestShardLimitMatchesSerial(t *testing.T) {
	build := func(engs []*Engine) {
		// Chains on two nodes; every event schedules the next 7 cycles out,
		// past the limit eventually.
		for i, e := range engs {
			e := e
			var tick Func
			tick = func() { e.After(7, tick) }
			e.At(Time(i), tick)
		}
	}
	serial := NewEngine()
	serial.Limit = 50
	build([]*Engine{serial, serial})
	_, serr := serial.Run()
	if serr == nil {
		t.Fatal("serial run did not hit the limit")
	}

	c := NewCluster(2, 14)
	c.Shard(0).Limit = 50
	c.Shard(1).Limit = 50
	build([]*Engine{c.Shard(0), c.Shard(1)})
	_, perr := c.Run(0, nil)
	if perr == nil {
		t.Fatal("sharded run did not hit the limit")
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("limit errors diverge:\nserial:  %v\nsharded: %v", serr, perr)
	}
	if c.Executed() != serial.Executed() {
		t.Fatalf("executed %d events, serial %d", c.Executed(), serial.Executed())
	}
}

// TestShardStepCapCheck pins the watchdog hook: a shard burning through the
// per-window step cap parks the cluster and runs onCheck with everything
// quiesced; an onCheck error aborts the run.
func TestShardStepCapCheck(t *testing.T) {
	mk := func() *Cluster {
		c := NewCluster(2, 10)
		e := c.Shard(0)
		var spin Func
		n := 0
		spin = func() {
			if n++; n < 100 {
				e.At(e.Now(), spin) // same-cycle livelock, all in one window
			}
		}
		e.At(0, spin)
		return c
	}

	checks := 0
	if _, err := mk().Run(10, func(executed uint64) error {
		checks++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("step cap never triggered onCheck")
	}

	wantErr := fmt.Errorf("livelock detected")
	_, err := mk().Run(10, func(executed uint64) error { return wantErr })
	if err != wantErr {
		t.Fatalf("abort error = %v, want %v", err, wantErr)
	}
}

// TestShardSameCycleMultiShardBurst covers the queue edge the PDES windows
// lean on: large same-cycle bursts on several shards at once must drain in
// per-shard scheduling order even though the shards execute concurrently.
func TestShardSameCycleMultiShardBurst(t *testing.T) {
	const shards, burst = 4, 257
	c := NewCluster(shards, 10)
	got := make([][]int, shards)
	for s := 0; s < shards; s++ {
		s := s
		e := c.Shard(s)
		e.At(0, Func(func() {
			for i := 0; i < burst; i++ {
				i := i
				e.At(5, Func(func() { got[s] = append(got[s], i) }))
			}
		}))
	}
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if len(got[s]) != burst {
			t.Fatalf("shard %d fired %d of %d", s, len(got[s]), burst)
		}
		for i, v := range got[s] {
			if v != i {
				t.Fatalf("shard %d same-cycle FIFO violated at %d: got %d", s, i, v)
			}
		}
	}
}

// TestClusterMaxPendingAcrossShards covers MaxPending high-water accounting
// across shards: the cluster aggregate is the sum of per-shard high-water
// marks, each reached independently.
func TestClusterMaxPendingAcrossShards(t *testing.T) {
	c := NewCluster(2, 10)
	depths := []int{5, 9}
	for s, d := range depths {
		e := c.Shard(s)
		for i := 0; i < d; i++ {
			e.At(Time(i), Func(func() {}))
		}
	}
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := c.MaxPending(), depths[0]+depths[1]; got != want {
		t.Fatalf("MaxPending = %d, want %d", got, want)
	}
	for s, d := range depths {
		if got := c.Shard(s).MaxPending(); got != d {
			t.Fatalf("shard %d MaxPending = %d, want %d", s, got, d)
		}
	}
}

// TestShardSlabReuseAfterDrain covers slab reuse across windows: once a
// shard has reached its high-water mark, windows of drained cross-shard
// deliveries must not regrow its event slab.
func TestShardSlabReuseAfterDrain(t *testing.T) {
	const look = 8
	c := NewCluster(2, look)
	a, b := c.Shard(0), c.Shard(1)
	var caps [2]int
	hops := 0
	var hop func(self, other *Engine) func()
	hop = func(self, other *Engine) func() {
		return func() {
			if hops++; hops > 2000 {
				return
			}
			if hops == 500 { // steady state reached: record slab capacities
				caps[0], caps[1] = cap(a.slab), cap(b.slab)
			}
			arr := self.Now() + look
			self.DeferTo(other, Func(func() {
				other.At(arr, Func(hop(other, self)))
			}))
		}
	}
	for i := 0; i < 4; i++ {
		a.At(Time(i), Func(hop(a, b)))
	}
	if _, err := c.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	if caps[0] == 0 {
		t.Fatal("steady state never reached")
	}
	if cap(a.slab) != caps[0] || cap(b.slab) != caps[1] {
		t.Fatalf("slabs regrew across drains: (%d,%d) -> (%d,%d)",
			caps[0], caps[1], cap(a.slab), cap(b.slab))
	}
}

// TestRankLessTotalOrder cross-checks rankLess against the serial sequence
// order it reconstructs: run the toy serially on a cluster-of-one... not
// expressible, so instead exercise the comparator directly on a randomized
// lineage and verify antisymmetry, transitivity on sampled triples, and the
// documented special cases (same parent, root, ancestor-before-descendant).
func TestRankLessTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	root := &Ctx{}
	var all []*rankNode
	mint := func(ctx *Ctx) *rankNode {
		r := &rankNode{t: ctx.at, parent: ctx.parent, idx: ctx.next}
		ctx.next++
		all = append(all, r)
		return r
	}
	// Grow a random lineage forest: events at increasing times scheduling
	// children, with frequent same-cycle cascades.
	ctxs := []*Ctx{root}
	for i := 0; i < 400; i++ {
		ctx := ctxs[rng.Intn(len(ctxs))]
		r := mint(ctx)
		at := ctx.at
		if rng.Intn(3) > 0 {
			at += Time(rng.Intn(4))
		}
		if at < ctx.at {
			at = ctx.at
		}
		ctxs = append(ctxs, &Ctx{parent: r, at: at})
	}
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			ij := rankLess(all[i], all[j])
			ji := rankLess(all[j], all[i])
			if ij == ji {
				t.Fatalf("rankLess not antisymmetric for nodes %d,%d", i, j)
			}
		}
	}
	for k := 0; k < 20_000; k++ {
		a, b, c := all[rng.Intn(len(all))], all[rng.Intn(len(all))], all[rng.Intn(len(all))]
		if a != b && b != c && a != c && rankLess(a, b) && rankLess(b, c) && !rankLess(a, c) {
			t.Fatal("rankLess not transitive")
		}
	}
	// Ancestor orders before descendant.
	for _, r := range all {
		for p := r.parent; p != nil; p = p.parent {
			if !rankLess(p, r) {
				t.Fatalf("ancestor does not precede descendant")
			}
		}
	}
}
