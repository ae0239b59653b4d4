// Package obs is the structured observability layer of the simulator: typed
// protocol trace events, per-transaction latency attribution, a
// simulated-time metrics sampler, and versioned machine-readable run
// artifacts. Every model component holds one *Tracer handle, nil when both
// tracing and attribution are off; every method begins with a
// nil-receiver check, so the disabled path costs one branch and zero
// allocations. Event recording assumes the single-goroutine simulation
// discipline (one ring buffer per Tracer, not safe for concurrent use), so
// a tracer that records events refuses sharded runs. Span tiling (span.go)
// is guarded by its own mutex, and a tracer that records no events returns
// from every event method before touching shared state, so attribution
// works serial or sharded.
package obs

import (
	"fmt"
	"sync"

	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

// EventKind identifies the typed trace-event vocabulary.
type EventKind uint8

const (
	// EvDispatch is a protocol-handler execution on an engine: a complete
	// span with Dur = handler occupancy and A = queueing delay.
	EvDispatch EventKind = iota
	// EvEnqueue is an insertion into a controller input queue. Track is the
	// engine, A the queue (QResp/QReq/QBus), B the depth after insertion.
	EvEnqueue
	// EvDequeue is a removal from a controller input queue at dispatch time.
	// Track is the engine, A the queue, B the depth after removal.
	EvDequeue
	// EvBusStrobe is a bus transaction reaching the address strobe; A is the
	// issuing snooper index (smpbus.CCSrc for the controller).
	EvBusStrobe
	// EvNetSend is a message accepted by a node's NI output port; A is the
	// destination node, B the flit count.
	EvNetSend
	// EvNetRecv is the last flit of a message draining into the destination
	// NI; Node is the receiver, A the source node.
	EvNetRecv
	// EvDirRead is a directory read; A is 1 on a directory-cache hit, 0 on a
	// miss, and Name the state read.
	EvDirRead
	// EvDirWrite is a directory write-through; Name is the state written.
	EvDirWrite
	// EvCache is a processor cache transition (snoop, install, evict,
	// write-back); Track is the node-local processor index.
	EvCache
	// EvNack is a request bounced by a home controller (full input queue or
	// retried-owner collision); Track is the engine, Name the request type.
	EvNack
	// EvFault is an injected fault taking effect (drop, duplicate, delay,
	// corrupt, engine stall, port brownout); Name is the fault kind, A a
	// kind-specific argument (delay/stall cycles, message index).
	EvFault
	// EvSpan is a latency-attribution checkpoint of one coherence
	// transaction: A is the transaction ID, Name the stage, B the marker
	// kind (0 = stage begin, 1 = measured stage slice with Dur = its
	// length, 2 = transaction finish with Dur = end-to-end latency).
	EvSpan

	numEventKinds
)

var eventKindNames = [...]string{
	"dispatch", "enqueue", "dequeue", "bus", "send", "recv",
	"dir-read", "dir-write", "cache", "nack", "fault", "span",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Queue identifiers for EvEnqueue/EvDequeue (the controller's three input
// queues, in the paper's dispatch-priority order).
const (
	QResp = 0 // network responses
	QReq  = 1 // network requests
	QBus  = 2 // bus-side requests
)

// QueueName returns the report name of a controller input queue.
func QueueName(q int) string {
	switch q {
	case QResp:
		return "respQ"
	case QReq:
		return "reqQ"
	case QBus:
		return "busQ"
	default:
		return fmt.Sprintf("queue%d", q)
	}
}

// TraceDescriber lets payloads that are opaque to a carrier (the network
// sees only interface{}) describe themselves for tracing and span tiling.
type TraceDescriber interface {
	TraceName() string
	TraceLine() uint64
	// SpanTxn reports the transaction ID and request-episode epoch the
	// payload carries (zeros for untracked work).
	SpanTxn() (txn uint64, epoch uint32)
}

// DescribePayload extracts a trace label, line, transaction ID and epoch
// from an opaque payload, returning zero values when the payload cannot
// describe itself (fault-wrapped frames, raw test payloads).
func DescribePayload(p interface{}) (name string, line, txn uint64, epoch uint32) {
	if d, ok := p.(TraceDescriber); ok {
		txn, epoch = d.SpanTxn()
		return d.TraceName(), d.TraceLine(), txn, epoch
	}
	return "", 0, 0, 0
}

// Event is one typed trace record. The struct is fixed-size and string
// fields only ever reference constant name tables, so recording an event
// never allocates.
type Event struct {
	At   sim.Time  // simulated timestamp
	Dur  sim.Time  // span length (EvDispatch), zero for instants
	Kind EventKind // vocabulary entry
	Node int32     // node the event happened on
	// Track distinguishes parallel units within a node: the protocol-engine
	// index for dispatch/queue events, the node-local processor index for
	// cache events, unused otherwise.
	Track int32
	Line  uint64 // cache-line address (zero when not line-related)
	A, B  int64  // kind-specific arguments (see the EventKind docs)
	Name  string // kind-specific label (handler, message, txn kind, state)
	Aux   string // secondary label (cache state for EvCache), often empty
}

// Tracer is the one observation handle of the model components. A tracer
// built by NewTracer records typed events into a fixed-capacity ring
// buffer and/or streams them to a sink; the zero Tracer records no events.
// EnableAttribution adds span tiling to either. A nil *Tracer is the
// disabled tracer: every method no-ops after one nil check.
type Tracer struct {
	events bool // records events (set by NewTracer)
	ring   []Event
	next   uint64 // total events recorded (ring index = next % len(ring))
	sink   func(*Event)
	// scratch carries the event to the sink; passing &scratch instead of a
	// stack variable's address keeps record() allocation-free (a local whose
	// address reaches an unknown function would escape to the heap).
	scratch Event

	// Span tiling state (span.go); open is nil unless EnableAttribution ran.
	// mu guards open and the aggregates: under -shards, checkpoints for
	// different transactions arrive from different shard workers. Any one
	// transaction's checkpoints are never concurrent (its lifecycle events
	// are causally chained at least one lookahead apart), and every
	// aggregate is an order-independent sum, so the lock protects memory
	// without affecting the aggregated results.
	mu         sync.Mutex
	open       map[uint64]*spanState
	stages     [numStages]stats.Histogram
	violations uint64
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithBuffer sets the ring-buffer capacity in events (default 1<<18;
// 0 disables buffering, for pure streaming use).
func WithBuffer(capacity int) Option {
	return func(t *Tracer) {
		if capacity <= 0 {
			t.ring = nil
			return
		}
		t.ring = make([]Event, capacity)
	}
}

// WithSink streams every event to fn as it is recorded (in addition to the
// ring buffer, if any). The *Event is only valid during the call.
func WithSink(fn func(*Event)) Option {
	return func(t *Tracer) { t.sink = fn }
}

// NewTracer creates a tracer that records events.
func NewTracer(opts ...Option) *Tracer {
	t := &Tracer{events: true, ring: make([]Event, 1<<18)}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil && t.events }

// Recorded returns the total number of events recorded (including any that
// have been overwritten in the ring).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.ring == nil || t.next <= uint64(len(t.ring)) {
		return 0
	}
	return t.next - uint64(len(t.ring))
}

// Events returns the buffered events in chronological order (a copy).
func (t *Tracer) Events() []Event {
	if t == nil || t.ring == nil {
		return nil
	}
	n := t.next
	capacity := uint64(len(t.ring))
	if n <= capacity {
		out := make([]Event, n)
		copy(out, t.ring[:n])
		return out
	}
	out := make([]Event, capacity)
	head := n % capacity // oldest surviving event
	copy(out, t.ring[head:])
	copy(out[capacity-head:], t.ring[:head])
	return out
}

// record appends an event to the ring and/or sink.
func (t *Tracer) record(ev Event) {
	if t.sink != nil {
		t.scratch = ev
		t.sink(&t.scratch)
	}
	if t.ring != nil {
		t.ring[t.next%uint64(len(t.ring))] = ev
	}
	t.next++
}

// Dispatch records a handler execution: engine idx, the dispatched work's
// label (message type or bus-transaction kind), its line, the occupancy
// charged, and the arrival-to-dispatch queueing delay.
func (t *Tracer) Dispatch(at sim.Time, node, engine int, name string, line uint64, occ, queueDelay sim.Time) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Dur: occ, Kind: EvDispatch, Node: int32(node),
		Track: int32(engine), Line: line, A: int64(queueDelay), Name: name})
}

// Enqueue records an insertion into a controller input queue, with the
// queue's depth after the insertion.
func (t *Tracer) Enqueue(at sim.Time, node, engine, queue, depth int, name string, line uint64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvEnqueue, Node: int32(node), Track: int32(engine),
		Line: line, A: int64(queue), B: int64(depth), Name: name})
}

// Dequeue records a removal from a controller input queue at dispatch time,
// with the queue's depth after the removal.
func (t *Tracer) Dequeue(at sim.Time, node, engine, queue, depth int, line uint64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvDequeue, Node: int32(node), Track: int32(engine),
		Line: line, A: int64(queue), B: int64(depth)})
}

// BusStrobe records a bus transaction reaching the address strobe.
func (t *Tracer) BusStrobe(at sim.Time, node int, kind string, line uint64, src int) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvBusStrobe, Node: int32(node), Line: line,
		A: int64(src), Name: kind})
}

// NetSend records a message entering a node's NI output port.
func (t *Tracer) NetSend(at sim.Time, src, dst int, name string, line uint64, flits int) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvNetSend, Node: int32(src), A: int64(dst),
		B: int64(flits), Line: line, Name: name})
}

// NetRecv records a message fully drained into the destination NI.
func (t *Tracer) NetRecv(at sim.Time, src, dst int, name string, line uint64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvNetRecv, Node: int32(dst), A: int64(src),
		Line: line, Name: name})
}

// DirAccess records a directory read (hit reports a directory-cache hit) or
// write-through; state is the entry state read or written.
func (t *Tracer) DirAccess(at sim.Time, node int, line uint64, write, hit bool, state string) {
	if t.Enabled() {
		t.dirAccess(at, node, line, write, hit, state)
	}
}

func (t *Tracer) dirAccess(at sim.Time, node int, line uint64, write, hit bool, state string) {
	kind := EvDirRead
	var a int64
	if write {
		kind = EvDirWrite
	} else if hit {
		a = 1
	}
	t.record(Event{At: at, Kind: kind, Node: int32(node), Line: line, A: a, Name: state})
}

// Cache records a processor cache transition; proc is the node-local
// processor index, action the transition (snoop/install/evict/writeback)
// and state the resulting or observed cache state.
func (t *Tracer) Cache(at sim.Time, node, proc int, line uint64, action, state string) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvCache, Node: int32(node), Track: int32(proc),
		Line: line, Name: action, Aux: state})
}

// Nack records a request bounced by a home controller without dispatch.
func (t *Tracer) Nack(at sim.Time, node, engine int, name string, line uint64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvNack, Node: int32(node), Track: int32(engine),
		Line: line, Name: name})
}

// Fault records an injected fault taking effect; kind is the fault name
// (drop/dup/delay/corrupt/stall/brownout) and arg a kind-specific value.
func (t *Tracer) Fault(at sim.Time, node int, kind string, arg int64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Kind: EvFault, Node: int32(node), A: arg, Name: kind})
}
