// Package interconnect models the CC-NUMA system's point-to-point network:
// a fast switch with 32-byte-wide links, a fixed point-to-point latency
// (70 ns in the base system), and external point contention modelled as
// FIFO queueing on each node's network-interface input and output ports.
// Payloads are opaque to the network; the coherence protocol lives above.
package interconnect

import (
	"fmt"
	"sync/atomic"

	"ccnuma/internal/config"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// Handler receives a delivered message on the destination node.
type Handler func(src int, payload interface{})

// Decision is the action the fault layer takes on one message entering the
// network. The zero value means "deliver normally".
type Decision struct {
	// Drop loses the message on the link. On a Robust machine the link
	// layer retransmits the original after config.RobustNetRetryDelay;
	// without it the loss is permanent.
	Drop bool
	// Duplicate injects a second copy of the message. On a Robust machine
	// the receiving NI discards the copy (sequence-number dedup) after it has
	// consumed link bandwidth; without it the copy reaches the protocol, as
	// a separate payload when the payload is a Cloner.
	Duplicate bool
	// Delay adds cycles to the message's switch traversal.
	Delay sim.Time
	// Replace, when non-nil, substitutes a corrupted payload. On a Robust
	// machine the corrupted frame fails the receiver's CRC, is
	// discarded, and the original is retransmitted; without it the
	// corrupted payload is delivered as-is.
	Replace interface{}
}

// Cloner is implemented by payloads that a sink may recycle once it has
// handled them: a duplicate delivered to the sink must then be a separate
// copy, or the sink would handle a payload it had already recycled.
type Cloner interface {
	Clone() interface{}
}

// FaultHook inspects every message entering the network and decides its
// fate. It sees originals only — link-level retransmissions and
// fault-created duplicate copies are not re-faulted — and must be
// deterministic (cclint's sim-rand check applies to implementations in
// simulation packages).
type FaultHook func(src, dst int, payload interface{}) Decision

// LinkStats aggregates the link layer's fault and recovery activity.
type LinkStats struct {
	Drops          uint64 // messages lost on the link (injected)
	Duplicates     uint64 // duplicate copies injected
	Corrupts       uint64 // payload corruptions injected
	DelaysInjected uint64 // messages given extra traversal delay
	Retransmits    uint64 // link-level retransmissions (Robust only)
	Discards       uint64 // frames rejected at the receiving NI (CRC/dedup)
	Overflows      uint64 // sends parked on a full NI output buffer
	Brownouts      uint64 // injected NI port outages
}

// discardFrame wraps a payload that crosses the wire but is rejected by the
// receiving NI (a corrupted frame failing its CRC, or a duplicate caught by
// sequence-number dedup): it consumes bandwidth, then vanishes.
type discardFrame struct {
	payload interface{}
}

// frame is one message crossing the network. It carries the message from
// the send through the output buffer, any go-back-N hold, both ports (and
// the mesh's links) and arrival, one step after another: send, launch,
// admit, land and arrive (hopped for each mesh link between launch and
// admit). While a frame waits in the NI output buffer or a go-back-N hold
// it has no step in flight. Every step runs through one callback, bound
// when the frame is allocated, which runs the step named in step;
// scheduling a second step while one is in flight panics. Frames are
// recycled through per-engine free lists, so a recycled frame crosses the
// network without allocating.
type frame struct {
	src, dst int
	flits    int
	payload  interface{}
	delay    sim.Time
	// ser is the serialization time and head the cycle the head flit
	// reaches the destination's input port; both are set at the output
	// port grant.
	ser, head sim.Time
	// at is the mesh node the head flit has reached (TopoMesh2D only).
	at int

	// step is the network step scheduled for this frame (nil when none
	// is), and stepFn the callback that runs it.
	step   func(*Network, *frame)
	stepFn func()
}

// then names step as f's next step and returns the callback that runs it,
// for the caller to schedule. A frame with a step already in flight would
// run only one of the two, so scheduling a second panics.
func (f *frame) then(step func(*Network, *frame)) func() {
	if f.step != nil {
		panic(fmt.Sprintf("interconnect: frame %d->%d scheduled a network step with another in flight", f.src, f.dst))
	}
	f.step = step
	return f.stepFn
}

// runStep runs f's scheduled step, clearing it first so that the step can
// schedule the next.
func (n *Network) runStep(f *frame) {
	step := f.step
	f.step = nil
	step(n, f)
}

// pairHold is a go-back-N recovery window on one (src, dst) pair: the
// frames queued here re-enter the send path, in order, when the window
// closes. The coherence protocol relies on per-pair FIFO delivery (an
// ownership grant must reach the new owner before a later intervention),
// and the fault-free network provides it via its port FIFOs — so the
// reliable link layer must preserve it too: a retransmitted or delayed
// frame holds everything behind it on the same pair instead of being
// overtaken.
type pairHold struct {
	n      *Network
	pair   int // the window's index in Network.hold
	frames []*frame
}

// close ends the window: the held frames re-enter the send path in order.
func (h *pairHold) close() {
	h.n.hold[h.pair] = nil
	for _, f := range h.frames {
		h.n.enqueue(f)
	}
}

// Network connects the nodes' network interfaces.
type Network struct {
	// engs maps each node to the engine that owns it (every entry is the
	// same engine on a serial run). The source side of a send — output
	// port, overflow buffer, go-back-N holds — runs entirely on the source
	// node's engine; on a sharded run the destination side crosses shards
	// through DeferTo, so the input port admits requests in the
	// reconstructed serial order.
	engs  []*sim.Engine
	cfg   *config.Config
	tr    *obs.Tracer    // nil when tracing and attribution are off
	out   []sim.Resource // per-node NI output ports
	in    []sim.Resource // per-node NI input ports
	sinks []Handler
	mesh  *mesh // non-nil under TopoMesh2D

	// Fault, when non-nil, is consulted for every original message entering
	// the network (the internal/fault injector plugs in here; verify's
	// detection tests install targeted hooks directly).
	Fault FaultHook

	// msgs/flits/inFlight are updated atomically: when sharded, sends on
	// different source engines race on the totals (the sums are still
	// deterministic; only the interleaving is not).
	msgs  uint64
	flits uint64
	// inFlight counts messages accepted by Send whose sink has not fired
	// yet (Machine.CheckDrained reads it to confirm a drained run left
	// nothing on the wire).
	inFlight int64

	link LinkStats
	// outQueued/outWait implement the finite NI output buffer: messages
	// beyond config.RobustNIPortDepth park in outWait until the port
	// drains. Only maintained on a Robust machine, so fault-free runs
	// schedule an identical event stream.
	outQueued []int
	outWait   [][]*frame
	// hold[src*Nodes+dst] is the pair's active go-back-N recovery window,
	// or nil (Robust only; never populated on a fault-free run). Only the
	// source node's engine touches a pair's entry.
	hold []*pairHold
	// free[pool[node]] is the list of idle frames of the engine that owns
	// node: one list on a serial run, one per shard on a sharded one.
	// A send takes its frame from the source engine's list and the arrival
	// returns it to the destination engine's, each on that engine, so no
	// list is touched from two goroutines, and a node that sends more than
	// it receives reuses the frames its engine's other nodes received.
	free []sim.FreeList[frame]
	pool []int
	// drainFns[node] is portDrained for that node, bound once.
	drainFns []func()
}

// New creates the network for the configured node count; engs[i] is the
// engine that owns node i. The mesh topology routes through per-hop links
// shared between nodes and runs on engs[0] (config.Validate rejects mesh
// with shards). tr may be nil.
func New(engs []*sim.Engine, cfg *config.Config, tr *obs.Tracer) *Network {
	if len(engs) != cfg.Nodes {
		panic(fmt.Sprintf("interconnect: %d engines for %d nodes", len(engs), cfg.Nodes))
	}
	n := &Network{
		engs:      engs,
		cfg:       cfg,
		tr:        tr,
		out:       make([]sim.Resource, cfg.Nodes),
		in:        make([]sim.Resource, cfg.Nodes),
		sinks:     make([]Handler, cfg.Nodes),
		outQueued: make([]int, cfg.Nodes),
		outWait:   make([][]*frame, cfg.Nodes),
		hold:      make([]*pairHold, cfg.Nodes*cfg.Nodes),
		pool:      make([]int, cfg.Nodes),
		drainFns:  make([]func(), cfg.Nodes),
	}
	pools := make(map[*sim.Engine]int)
	for i := 0; i < cfg.Nodes; i++ {
		p, ok := pools[engs[i]]
		if !ok {
			p = len(n.free)
			pools[engs[i]] = p
			n.free = append(n.free, sim.FreeList[frame]{})
		}
		n.pool[i] = p
		n.out[i] = sim.MakeResource(engs[i])
		n.in[i] = sim.MakeResource(engs[i])
		node := i
		n.drainFns[i] = func() { n.portDrained(node) }
	}
	if cfg.Topology == config.TopoMesh2D {
		n.mesh = newMesh(engs[0], cfg.Nodes)
	}
	return n
}

// Hops returns the routing distance between two nodes (1 for the
// crossbar).
func (n *Network) Hops(src, dst int) int {
	if n.mesh == nil {
		return 1
	}
	return n.mesh.Hops(src, dst)
}

// Attach registers the message sink for a node. Every node must have a sink
// before traffic is sent to it.
func (n *Network) Attach(node int, h Handler) {
	if n.sinks[node] != nil {
		panic(fmt.Sprintf("interconnect: node %d already attached", node))
	}
	n.sinks[node] = h
}

// Send transmits a message of the given flit count from src to dst. The
// source NI accepts it into its send queue at cycle at of src's engine,
// which must not be in the past. The sender's output port is occupied for
// the serialization time; the head flit then traverses the switch with the
// configured point-to-point latency; the receiver's input port is occupied
// while the message drains into the destination NI; the sink fires when
// the last flit has arrived.
func (n *Network) Send(at sim.Time, src, dst, flitCount int, payload interface{}) {
	f := n.frameFor(src, dst, flitCount, payload)
	n.engs[src].At(at, f.then((*Network).send))
}

// frameFor takes a frame for one message from the free list of src's
// engine, allocating a new one and binding its callback when the list is
// empty.
func (n *Network) frameFor(src, dst, flitCount int, payload interface{}) *frame {
	if src < 0 || src >= len(n.out) || dst < 0 || dst >= len(n.in) {
		panic(fmt.Sprintf("interconnect: send %d->%d out of range", src, dst))
	}
	if flitCount <= 0 {
		flitCount = 1
	}
	f := n.free[n.pool[src]].Get()
	if f == nil {
		f = &frame{}
		f.stepFn = func() { n.runStep(f) }
	}
	f.src, f.dst, f.flits, f.payload, f.delay = src, dst, flitCount, payload, 0
	return f
}

// send puts f through the fault hook, if any, and into the source NI.
func (n *Network) send(f *frame) {
	src, dst := f.src, f.dst
	if n.tr.Attributing() {
		_, _, txn, epoch := obs.DescribePayload(f.payload)
		n.tr.SpanBegin(txn, obs.StageNIPort, epoch, n.engs[src].Now())
	}
	if n.Fault == nil {
		n.enqueue(f)
		return
	}
	d := n.Fault(src, dst, f.payload)
	if d.Delay > 0 {
		atomic.AddUint64(&n.link.DelaysInjected, 1)
	}
	if d.Replace != nil {
		atomic.AddUint64(&n.link.Corrupts, 1)
		if n.cfg.Robust {
			// The mangled frame crosses the wire, fails the receiver's
			// CRC, and the sender's replay buffer re-sends the original.
			bad := n.frameFor(src, dst, f.flits, &discardFrame{payload: d.Replace})
			bad.delay = d.Delay
			n.enqueue(bad)
			atomic.AddUint64(&n.link.Retransmits, 1)
			n.holdPair(src, dst, config.RobustNetRetryDelay, f)
			return
		}
		f.payload = d.Replace
	}
	if d.Drop {
		atomic.AddUint64(&n.link.Drops, 1)
		if n.cfg.Robust {
			atomic.AddUint64(&n.link.Retransmits, 1)
			n.holdPair(src, dst, config.RobustNetRetryDelay, f)
		}
		return
	}
	if d.Duplicate {
		atomic.AddUint64(&n.link.Duplicates, 1)
		copyPayload := f.payload
		if n.cfg.Robust {
			copyPayload = &discardFrame{payload: f.payload}
		} else if c, ok := f.payload.(Cloner); ok {
			copyPayload = c.Clone()
		}
		// The duplicate copy needs no ordering: the receiving NI rejects
		// it (reliable) or the protocol must tolerate it (raw).
		n.enqueue(n.frameFor(src, dst, f.flits, copyPayload))
	}
	if n.cfg.Robust {
		if d.Delay > 0 {
			// A delayed frame stalls its go-back-N window: later frames
			// on the pair queue behind it instead of overtaking.
			n.holdPair(src, dst, d.Delay, f)
			return
		}
		if h := n.hold[n.pair(src, dst)]; h != nil {
			h.frames = append(h.frames, f)
			return
		}
	}
	f.delay = d.Delay
	n.enqueue(f)
}

// holdPair opens (or joins) the pair's go-back-N recovery window: f and
// every subsequent original on the pair re-enter the send path, in order,
// when the window closes after delay.
func (n *Network) holdPair(src, dst int, delay sim.Time, f *frame) {
	k := n.pair(src, dst)
	if h := n.hold[k]; h != nil {
		// Already recovering this pair: the frame joins the replay queue
		// and rides the existing window.
		h.frames = append(h.frames, f)
		return
	}
	h := &pairHold{n: n, pair: k, frames: []*frame{f}}
	n.hold[k] = h
	// A window opens only during fault recovery, so its close is bound
	// once per window.
	n.engs[src].After(delay, h.close)
}

// pair returns the index of the (src, dst) pair in hold.
func (n *Network) pair(src, dst int) int { return src*n.cfg.Nodes + dst }

// enqueue admits a message to the source NI's output buffer, parking it
// when the configured finite depth is exceeded (back-pressure).
func (n *Network) enqueue(f *frame) {
	if n.cfg.Robust && n.outQueued[f.src] >= config.RobustNIPortDepth {
		atomic.AddUint64(&n.link.Overflows, 1)
		n.outWait[f.src] = append(n.outWait[f.src], f)
		return
	}
	n.transmit(f)
}

func (n *Network) transmit(f *frame) {
	atomic.AddUint64(&n.msgs, 1)
	atomic.AddUint64(&n.flits, uint64(f.flits))
	atomic.AddInt64(&n.inFlight, 1)
	if n.cfg.Robust {
		n.outQueued[f.src]++
	}
	if n.tr.Enabled() {
		name, line, _, _ := obs.DescribePayload(f.payload)
		n.tr.NetSend(n.engs[f.src].Now(), f.src, f.dst, name, line, f.flits)
	}
	f.ser = sim.Time(f.flits) * n.cfg.NetFlitTime
	n.out[f.src].Acquire(f.ser, f.then((*Network).launch))
}

// launch runs at the output port grant: the frame serializes onto the
// wire and its head flit heads for the destination.
func (n *Network) launch(f *frame) {
	eng := n.engs[f.src]
	start := eng.Now()
	if n.tr.Attributing() {
		_, _, txn, epoch := obs.DescribePayload(f.payload)
		n.tr.SpanEnd(txn, obs.StageNIPort, epoch, start)
		n.tr.SpanBegin(txn, obs.StageWire, epoch, start)
	}
	if n.cfg.Robust {
		eng.At(start+f.ser, n.drainFns[f.src])
	}
	if n.mesh != nil && f.src != f.dst {
		n.sendMesh(f, start+f.delay)
		return
	}
	f.head = start + n.cfg.NetLatency + f.delay
	n.deliverAt(f)
}

// portDrained frees one NI output-buffer slot and launches the oldest
// parked send, if any. The buffer shifts down in place, so it keeps
// reusing its backing array.
func (n *Network) portDrained(src int) {
	n.outQueued[src]--
	w := n.outWait[src]
	if len(w) == 0 {
		return
	}
	f := w[0]
	k := copy(w, w[1:])
	w[k] = nil
	n.outWait[src] = w[:k]
	n.transmit(f)
}

// Brownout takes a node's NI port out of service for dur cycles (fault
// injection): the port resource is occupied, so queued and future messages
// wait behind the outage exactly as behind a long serialization.
func (n *Network) Brownout(node int, out bool, dur sim.Time) {
	if node < 0 || node >= len(n.out) || dur <= 0 {
		return
	}
	atomic.AddUint64(&n.link.Brownouts, 1)
	if out {
		n.out[node].Acquire(dur, nil)
		return
	}
	// Input-port admissions are serialized through the window drain in
	// reconstructed serial order on a sharded run; the outage must take its
	// place in that same order or the port's FIFO accumulation diverges
	// from serial. The nil grant schedules no event, so the drain's
	// lookahead guard never sees the below-horizon arrival.
	eng := n.engs[node]
	at := eng.Now()
	eng.DeferTo(eng, func() { n.in[node].AcquireAt(at, dur, nil) })
}

// sendMesh chains the message across the mesh's links with dimension-order
// routing: each hop contends for its directed link, occupies it for the
// serialization time, and adds the per-hop router latency.
func (n *Network) sendMesh(f *frame, start sim.Time) {
	f.at = f.src
	n.hop(f, start)
}

// hop requests, at t, the link from the head's node f.at to the next node
// on f's route, or delivers f once its head has reached the destination.
func (n *Network) hop(f *frame, t sim.Time) {
	if f.at == f.dst {
		f.head = t
		n.deliverAt(f)
		return
	}
	next := n.mesh.next(f.at, f.dst)
	link := n.mesh.links[[2]int{f.at, next}]
	f.at = next
	link.AcquireAt(t, f.ser, f.then((*Network).hopped))
}

// hopped runs at a link grant: the head reaches the next router after the
// per-hop latency.
func (n *Network) hopped(f *frame) {
	n.hop(f, n.engs[0].Now()+n.cfg.NetHopLatency)
}

// deliverAt drains the message into the destination NI beginning at
// f.head and fires the sink when the last flit lands. The admission goes
// through DeferTo, which runs it inline on a serial engine. When sharded,
// every delivery — even one whose destination shares the source's shard —
// is admitted at the window drain, so the input port admits requests in the
// reconstructed serial order (its FIFO accumulation depends on admission
// order, not just arrival times). f.head is at least one network latency
// past the sending event, and the cluster lookahead never exceeds the
// network latency, so the drained admission lands at or past the window
// horizon.
func (n *Network) deliverAt(f *frame) {
	n.engs[f.src].DeferTo(n.engs[f.dst], f.then((*Network).admit))
}

// admit queues the frame for the destination's input port.
func (n *Network) admit(f *frame) {
	n.in[f.dst].AcquireAt(f.head, f.ser, f.then((*Network).land))
}

// land runs at the input port grant: the last flit arrives ser later.
func (n *Network) land(f *frame) {
	n.engs[f.dst].After(f.ser, f.then((*Network).arrive))
}

// arrive hands the message to the destination's sink, first returning the
// frame to the free list of the destination's engine for the sink's own
// sends.
func (n *Network) arrive(f *frame) {
	src, dst, payload := f.src, f.dst, f.payload
	f.payload = nil
	n.free[n.pool[dst]].Put(f)
	atomic.AddInt64(&n.inFlight, -1)
	if _, rejected := payload.(*discardFrame); rejected {
		// Failed CRC or duplicate sequence number: the NI rejects the
		// frame after it has consumed wire bandwidth.
		atomic.AddUint64(&n.link.Discards, 1)
		return
	}
	sink := n.sinks[dst]
	if sink == nil {
		panic(fmt.Sprintf("interconnect: no sink on node %d", dst))
	}
	if n.tr != nil {
		eng := n.engs[dst]
		name, line, txn, epoch := obs.DescribePayload(payload)
		n.tr.NetRecv(eng.Now(), src, dst, name, line)
		n.tr.SpanEnd(txn, obs.StageWire, epoch, eng.Now())
	}
	sink(src, payload)
}

// Messages returns the number of messages sent so far.
func (n *Network) Messages() uint64 { return n.msgs }

// Link returns the link layer's fault/recovery counters.
func (n *Network) Link() LinkStats { return n.link }

// OutQueued returns the number of messages currently held in a node's NI
// output buffer (0 unless Config.Robust).
func (n *Network) OutQueued(node int) int {
	return n.outQueued[node] + len(n.outWait[node])
}

// InFlight returns the number of messages currently traversing the network
// (sent but not yet delivered to a sink).
func (n *Network) InFlight() int { return int(n.inFlight) }

// Flits returns the number of flits sent so far.
func (n *Network) Flits() uint64 { return n.flits }

// OutPort exposes a node's output-port resource (for utilization reports).
func (n *Network) OutPort(node int) *sim.Resource { return &n.out[node] }

// InPort exposes a node's input-port resource.
func (n *Network) InPort(node int) *sim.Resource { return &n.in[node] }
