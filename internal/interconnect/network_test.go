package interconnect

import (
	"runtime"
	"strings"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *Network, *config.Config) {
	t.Helper()
	cfg := config.Base()
	eng := sim.NewEngine()
	net := newSerial(eng, &cfg)
	return eng, net, &cfg
}

// newSerial builds a network whose every node runs on eng.
func newSerial(eng *sim.Engine, cfg *config.Config) *Network {
	engs := make([]*sim.Engine, cfg.Nodes)
	for i := range engs {
		engs[i] = eng
	}
	return New(engs, cfg, nil)
}

func TestControlMessageLatency(t *testing.T) {
	eng, net, cfg := setup(t)
	var deliveredAt sim.Time = -1
	var deliveredSrc int
	var deliveredPayload interface{}
	net.Attach(1, func(src int, p interface{}) {
		deliveredAt = eng.Now()
		deliveredSrc = src
		deliveredPayload = p
	})
	net.Send(0, 0, 1, cfg.ControlFlits(), "hello")
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Control message: 1 flit x 2 cycles serialization + 14 latency = 16.
	if deliveredAt != 16 {
		t.Fatalf("delivered at %d, want 16", deliveredAt)
	}
	if deliveredSrc != 0 || deliveredPayload != "hello" {
		t.Fatalf("delivery metadata wrong: src=%d payload=%v", deliveredSrc, deliveredPayload)
	}
}

func TestDataMessageLatency(t *testing.T) {
	eng, net, cfg := setup(t)
	var at sim.Time = -1
	net.Attach(2, func(int, interface{}) { at = eng.Now() })
	net.Send(0, 0, 2, cfg.LineDataFlits(), nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 flits x 2 + 14 = 24.
	if at != 24 {
		t.Fatalf("data message delivered at %d, want 24", at)
	}
}

func TestOutputPortSerializes(t *testing.T) {
	eng, net, _ := setup(t)
	var times []sim.Time
	net.Attach(1, func(int, interface{}) { times = append(times, eng.Now()) })
	net.Attach(2, func(int, interface{}) { times = append(times, eng.Now()) })
	net.Send(0, 0, 1, 5, nil) // occupies out port [0,10)
	net.Send(0, 0, 2, 1, nil) // must wait until 10
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	// First: 10 + 14 = 24. Second: starts at 10, 2 + 14 = 26.
	if times[0] != 24 || times[1] != 26 {
		t.Fatalf("delivery times %v, want [24 26]", times)
	}
}

func TestInputPortContention(t *testing.T) {
	eng, net, _ := setup(t)
	var times []sim.Time
	net.Attach(3, func(src int, _ interface{}) { times = append(times, eng.Now()) })
	net.Send(0, 0, 3, 5, nil) // arrives head at 14, drains [14,24)
	net.Send(0, 1, 3, 5, nil) // head also at 14, must queue: drains [24,34)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 24 || times[1] != 34 {
		t.Fatalf("delivery times %v, want [24 34]", times)
	}
}

func TestSlowNetworkParameter(t *testing.T) {
	cfg := config.Base()
	cfg.NetLatency = 200 // 1 microsecond
	eng := sim.NewEngine()
	net := newSerial(eng, &cfg)
	var at sim.Time
	net.Attach(1, func(int, interface{}) { at = eng.Now() })
	net.Send(0, 0, 1, 1, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 202 {
		t.Fatalf("slow-net delivery at %d, want 202", at)
	}
}

func TestCounters(t *testing.T) {
	eng, net, _ := setup(t)
	net.Attach(1, func(int, interface{}) {})
	net.Send(0, 0, 1, 5, nil)
	net.Send(0, 0, 1, 1, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Messages() != 2 || net.Flits() != 6 {
		t.Fatalf("messages=%d flits=%d", net.Messages(), net.Flits())
	}
	if net.OutPort(0).Busy() != 12 {
		t.Fatalf("out port busy = %d, want 12", net.OutPort(0).Busy())
	}
	if net.InPort(1).Busy() != 12 {
		t.Fatalf("in port busy = %d, want 12", net.InPort(1).Busy())
	}
}

func TestNoSinkPanics(t *testing.T) {
	eng, net, _ := setup(t)
	net.Send(0, 0, 1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("delivery without sink did not panic")
		}
	}()
	_, _ = eng.Run()
}

func TestDoubleAttachPanics(t *testing.T) {
	_, net, _ := setup(t)
	net.Attach(0, func(int, interface{}) {})
	defer func() {
		if recover() == nil {
			t.Error("double attach did not panic")
		}
	}()
	net.Attach(0, func(int, interface{}) {})
}

func TestMeshGeometry(t *testing.T) {
	cfg := config.Base()
	cfg.Topology = config.TopoMesh2D
	eng := sim.NewEngine()
	net := newSerial(eng, &cfg) // 16 nodes -> 4x4 mesh
	// Corner to corner: Manhattan distance 6.
	if got := net.Hops(0, 15); got != 6 {
		t.Fatalf("hops(0,15) = %d, want 6", got)
	}
	if got := net.Hops(0, 1); got != 1 {
		t.Fatalf("hops(0,1) = %d, want 1", got)
	}
	if got := net.Hops(5, 5); got != 0 {
		t.Fatalf("hops(5,5) = %d, want 0", got)
	}
}

func TestMeshLatencyScalesWithDistance(t *testing.T) {
	cfg := config.Base()
	cfg.Topology = config.TopoMesh2D
	eng := sim.NewEngine()
	net := newSerial(eng, &cfg)
	var near, far sim.Time
	net.Attach(1, func(int, interface{}) { near = eng.Now() })
	net.Attach(15, func(int, interface{}) { far = eng.Now() })
	net.Send(0, 0, 1, 1, nil)  // 1 hop
	net.Send(0, 0, 15, 1, nil) // 6 hops
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if near == 0 || far == 0 {
		t.Fatal("messages not delivered")
	}
	// Each extra hop costs at least HopLatency + serialization.
	if far-near < 5*(cfg.NetHopLatency) {
		t.Fatalf("distance scaling too weak: near=%d far=%d", near, far)
	}
}

func TestMeshLinkContention(t *testing.T) {
	cfg := config.Base()
	cfg.Nodes = 4 // 2x2 mesh
	cfg.Topology = config.TopoMesh2D
	eng := sim.NewEngine()
	net := newSerial(eng, &cfg)
	var times []sim.Time
	net.Attach(1, func(int, interface{}) { times = append(times, eng.Now()) })
	// Two messages over the same 0->1 link: the second queues.
	net.Send(0, 0, 1, 5, nil)
	net.Send(0, 0, 1, 5, nil)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[1]-times[0] < 10 { // serialization of 5 flits x 2 cycles
		t.Fatalf("no link contention visible: %v", times)
	}
}

func TestMeshEndToEndMachine(t *testing.T) {
	// Covered more fully in machine tests; here just assert crossbar and
	// mesh deliver the same message count for one remote miss.
	for _, topo := range []config.Topology{config.TopoCrossbar, config.TopoMesh2D} {
		cfg := config.Base()
		cfg.Nodes = 4
		cfg.Topology = topo
		eng := sim.NewEngine()
		net := newSerial(eng, &cfg)
		got := 0
		net.Attach(3, func(int, interface{}) { got++ })
		net.Send(0, 0, 3, cfg.LineDataFlits(), nil)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("%v: delivered %d", topo, got)
		}
	}
}

// TestReliableLinkPreservesPairOrder pins the go-back-N contract: when a
// frame on a (src, dst) pair is dropped or delayed on a Robust link, later
// frames on the same pair must queue behind its recovery window instead of
// overtaking it. The coherence protocol depends on this (an ownership grant
// must land before a subsequent intervention).
func TestReliableLinkPreservesPairOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault Decision
	}{
		{"drop", Decision{Drop: true}},
		{"corrupt", Decision{Replace: "mangled"}},
		{"delay", Decision{Delay: 300}},
	} {
		eng, net, cfg := setup(t)
		cfg.Robust = true
		var order []interface{}
		net.Attach(1, func(_ int, p interface{}) { order = append(order, p) })
		hit := false
		net.Fault = func(src, dst int, payload interface{}) Decision {
			if payload == "first" && !hit {
				hit = true
				return tc.fault
			}
			return Decision{}
		}
		net.Send(0, 0, 1, 1, "first")
		net.Send(1, 0, 1, 1, "second")
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != "first" || order[1] != "second" {
			t.Errorf("%s: delivery order %v, want [first second]", tc.name, order)
		}
		if net.InFlight() != 0 {
			t.Errorf("%s: %d frames still in flight after drain", tc.name, net.InFlight())
		}
	}
}

// TestReliableLinkRejectsDuplicates pins that a duplicated frame's copy
// burns bandwidth but never reaches the protocol on a Robust link.
func TestReliableLinkRejectsDuplicates(t *testing.T) {
	eng, net, cfg := setup(t)
	cfg.Robust = true
	delivered := 0
	net.Attach(1, func(int, interface{}) { delivered++ })
	net.Fault = func(int, int, interface{}) Decision { return Decision{Duplicate: true} }
	net.Send(0, 0, 1, 1, "msg")
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d copies, want 1", delivered)
	}
	if net.Link().Discards != 1 {
		t.Errorf("Discards = %d, want 1", net.Link().Discards)
	}
}

// cell is a payload the sink may recycle, so a duplicate must be a copy.
type cell struct{ v int }

func (c *cell) Clone() interface{} {
	d := *c
	return &d
}

// TestRawDuplicateIsSeparateCopy pins that without the reliable link a
// duplicated Cloner payload reaches the sink as a second object with the
// original's contents, never as the original twice.
func TestRawDuplicateIsSeparateCopy(t *testing.T) {
	eng, net, _ := setup(t)
	var got []*cell
	net.Attach(1, func(_ int, p interface{}) { got = append(got, p.(*cell)) })
	net.Fault = func(int, int, interface{}) Decision { return Decision{Duplicate: true} }
	orig := &cell{v: 7}
	net.Send(0, 0, 1, 1, orig)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] || *got[0] != *orig || *got[1] != *orig {
		t.Fatalf("sink got %v, want the original and a separate copy of %v", got, *orig)
	}
}

// TestFramesRecycledPerEngine pins that frame free lists are keyed by
// engine: a serial network shares one list, so a node that only sends
// reuses the frames its receiver returned and a message allocates nothing
// once the list has warmed up, and a network spread over two engines keeps
// one list per engine.
func TestFramesRecycledPerEngine(t *testing.T) {
	eng, net, cfg := setup(t)
	net.Attach(1, func(int, interface{}) {})
	send := func() {
		net.Send(eng.Now(), 0, 1, 1, nil)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if perMsg := testing.AllocsPerRun(100, send); perMsg != 0 {
		t.Errorf("%v allocations per message from a node that only sends, want 0", perMsg)
	}

	a, b := sim.NewEngine(), sim.NewEngine()
	engs := make([]*sim.Engine, cfg.Nodes)
	for i := range engs {
		engs[i] = a
		if i >= cfg.Nodes/2 {
			engs[i] = b
		}
	}
	split := New(engs, cfg, nil)
	if len(split.free) != 2 || split.pool[0] != 0 || split.pool[cfg.Nodes-1] != 1 {
		t.Errorf("two engines: %d lists, node pools %v, want one list per engine", len(split.free), split.pool)
	}
}

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestFrameBindsOneCallback pins what a frame costs the network: a new
// frame allocates itself and the one callback that runs all of its steps,
// and a recycled frame allocates nothing.
func TestFrameBindsOneCallback(t *testing.T) {
	eng, net, _ := setup(t)
	net.Attach(1, func(int, interface{}) {})
	send := func() {
		net.Send(eng.Now(), 0, 1, 1, nil)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send() // the engine reserves its event slab and the frame goes idle
	net.free[net.pool[0]].Get()
	if n := mallocs(send); n != 2 {
		t.Errorf("a message with no idle frame allocated %d objects, want 2: a frame and its callback", n)
	}
	if n := mallocs(send); n != 0 {
		t.Errorf("a message with an idle frame allocated %d objects, want 0", n)
	}
}

// TestSecondFrameStepPanics pins the one-step rule: a frame with a step in
// flight cannot be given a second, and the panic names its pair.
func TestSecondFrameStepPanics(t *testing.T) {
	_, net, _ := setup(t)
	f := net.frameFor(2, 3, 1, nil)
	f.then((*Network).send)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frame 2->3") || !strings.Contains(msg, "another in flight") {
			t.Fatalf("panic %q, want one naming frame 2->3 and the step in flight", msg)
		}
	}()
	f.then((*Network).launch)
}
