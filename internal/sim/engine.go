// Package sim provides the deterministic discrete-event simulation engine
// underlying the CC-NUMA machine model. Simulated time is measured in
// compute-processor clock cycles (5 ns at 200 MHz, matching the paper's
// parameter tables). All model components schedule closures on a single
// Engine; the engine executes them in (time, sequence) order, which makes
// every simulation bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulated timestamp or duration in compute-processor cycles
// (5 ns each). Negative durations are invalid.
type Time int64

// Nanoseconds converts a Time to nanoseconds using the paper's 200 MHz
// compute-processor clock.
func (t Time) Nanoseconds() float64 { return float64(t) * 5.0 }

// event is a scheduled function. seq breaks ties between events scheduled
// for the same cycle so execution order is insertion order (deterministic).
// Events are stored by value inside the engine's node slab, so the engine
// allocates nothing per event. A function literal that captures variables
// allocates each time it is evaluated, so the model's hot paths schedule
// functions bound once to a long-lived object instead: a processor, a bus
// transaction, a protocol engine, a network frame (DESIGN §11.5).
//
// rank is nil on a serial engine. On a sharded engine (one that belongs to a
// Cluster) every event carries a scheduling-lineage rank that reconstructs
// the serial (time, seq) total order without a global sequence counter; see
// shard.go for the ordering argument.
type event struct {
	at   Time
	seq  uint64
	rank *rankNode
	fn   func()
}

// before reports whether e orders ahead of o in the engine's total order:
// (time, seq) on a serial engine, (time, rank) on a sharded one. An engine
// never mixes ranked and unranked events, so the nil checks only select the
// mode.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.rank == nil {
		return e.seq < o.seq
	}
	return rankLess(e.rank, o.rank)
}

// node is one slot of the engine's event slab: a pending event and the slab
// index of the next node in its bucket or in the free list.
type node struct {
	ev   event
	next int32
}

const (
	// wheelSpan is the calendar ring's width in cycles: an event less than
	// wheelSpan cycles ahead of now waits in the bucket for its cycle. The
	// machine model schedules 99.9% of its events at most 127 cycles ahead;
	// the rest (barrier costs, fault delays, sampler periods) wait in the
	// far heap. A power of two, so a time's bucket is its low bits.
	wheelSpan  = 256
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64

	// heapArity is the fan-out of the far heap. A 4-ary heap halves the
	// tree depth of a binary heap at the price of a few extra sibling
	// comparisons per level.
	heapArity = 4

	// firstSlab is the slab capacity the first event reserves: room for
	// the queue of a short fault-free run, which then reaches its
	// high-water depth without regrowing the slab. Reserving it at the
	// first event rather than in NewEngine keeps building a machine from
	// paying for it.
	firstSlab = 256
)

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine. Engine is not safe for concurrent use: all model code
// runs on the single goroutine that called Run (workload programs run as
// coroutines that the engine switches to directly, so a program runs only
// while the engine is suspended inside the event that resumed it).
// Independent simulations each own their engine, so whole runs can execute
// concurrently (see internal/runner).
//
// The pending events form a calendar queue (R. Brown, "Calendar queues",
// CACM 31(10), 1988): a ring of wheelSpan one-cycle buckets holds every
// event less than wheelSpan cycles ahead of now, and the far heap holds the
// rest. Every far event is later than every ring event: whenever now
// advances, the far events that come within the span move into the ring
// before the event at the new time runs. Each bucket holds one time and is
// kept in event.before order, so the head of the first non-empty bucket at
// or after now is the next event.
type Engine struct {
	now Time
	seq uint64
	// slab holds every pending event; its len(slab)-pending other nodes
	// form a free list headed by free. A simulation reaches its
	// high-water queue depth once and then schedules allocation-free.
	slab    []node
	free    int32
	pending int
	// head and tail index the first and last node of each ring bucket;
	// they are meaningful only while the bucket's bit in busy is set.
	head, tail [wheelSpan]int32
	busy       [wheelWords]uint64
	// far is a heapArity-ary min-heap of the slab indices of events at
	// least wheelSpan cycles ahead. Its capacity follows the slab's, so it
	// never grows on its own.
	far []int32
	// stopped is set by Stop; Run drains no further events once set.
	stopped bool
	// executed counts events run, for debugging, runaway detection, and
	// events-per-second throughput accounting (obs.MeasurePerf).
	executed uint64
	// maxPending tracks the queue's high-water mark (slab size reporting).
	maxPending int
	// limitHit records that the run ended because Limit was exceeded.
	limitHit bool
	// Limit optionally bounds simulated time; Run returns an error if the
	// event horizon passes Limit (guards against protocol livelock bugs).
	Limit Time

	// Sharded-mode state (nil/zero on a serial engine). cluster links the
	// engine to its Cluster, shard is its index there, cur is the scheduling
	// context of the event currently executing on this engine's worker,
	// fence holds a quiesce request posted by the current event, and
	// crossSends counts DeferTo publications originating here.
	cluster    *Cluster
	shard      int
	cur        Ctx
	fence      *fenceReq
	crossSends uint64
}

// NewEngine returns an empty engine at time zero with no time limit.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// MaxPending reports the event queue's high-water mark: the slab capacity a
// simulation of this shape needs.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug rather than a recoverable condition.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := event{at: t, fn: fn}
	if c := e.cluster; c != nil {
		if c.draining && t < c.drainHorizon {
			panic(fmt.Sprintf("sim: cross-shard lookahead violated: drained send schedules at %d before window horizon %d", t, c.drainHorizon))
		}
		ctx := c.ctx(e)
		if ctx == &e.cur && e.fence != nil {
			// A fence body runs inline on a serial engine but after the
			// posting event's body on a sharded one; scheduling on the
			// posting engine after Fence could therefore tie-break
			// differently against the body's own events. Requiring Fence
			// in tail position keeps the orders provably identical.
			panic("sim: event scheduled on its own engine after posting a Fence")
		}
		ev.rank = &rankNode{t: ctx.at, parent: ctx.parent, idx: ctx.next}
		ctx.next++
	} else {
		e.seq++
		ev.seq = e.seq
	}
	i := e.alloc(ev)
	if t-e.now < wheelSpan {
		e.link(i)
	} else {
		e.pushFar(i)
	}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// alloc stores ev in a free slab node, growing the slab (and the far heap's
// capacity with it) only when every node is pending. The first event
// reserves firstSlab nodes.
func (e *Engine) alloc(ev event) int32 {
	var i int32
	if e.pending < len(e.slab) {
		i = e.free
		e.free = e.slab[i].next
	} else {
		if e.slab == nil {
			e.slab = make([]node, 0, firstSlab)
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, node{})
		if cap(e.far) < cap(e.slab) {
			e.far = append(make([]int32, 0, cap(e.slab)), e.far...)
		}
	}
	e.slab[i].ev = ev
	if e.pending++; e.pending > e.maxPending {
		e.maxPending = e.pending
	}
	return i
}

// link adds node i to its ring bucket in event.before order. A new event
// orders after the bucket's tail on a serial engine (seq only grows, and a
// far event migrates before anything can be scheduled directly into its
// bucket), so the walk runs only on a shard, for a drained cross-shard send
// or a fence body that orders before events its shard already holds.
func (e *Engine) link(i int32) {
	n := &e.slab[i]
	b := n.ev.at & wheelMask
	w, bit := b/64, uint64(1)<<(b%64)
	if e.busy[w]&bit == 0 {
		e.busy[w] |= bit
		e.head[b], e.tail[b] = i, i
		return
	}
	if t := e.tail[b]; e.slab[t].ev.before(&n.ev) {
		e.slab[t].next = i
		e.tail[b] = i
		return
	}
	// n orders before the tail, so the walk stops at or before it.
	p := &e.head[b]
	for !n.ev.before(&e.slab[*p].ev) {
		p = &e.slab[*p].next
	}
	n.next = *p
	*p = i
}

// next returns the time of the earliest pending event: the first busy
// bucket at or after now, or the far heap's root when the ring is empty.
func (e *Engine) next() (Time, bool) {
	if e.pending == 0 {
		return 0, false
	}
	base := int(e.now & wheelMask)
	w := base / 64
	if m := e.busy[w] >> (base % 64); m != 0 {
		return e.now + Time(bits.TrailingZeros64(m)), true
	}
	// The last pass revisits word w for the buckets below base.
	for k := 1; k <= wheelWords; k++ {
		wi := (w + k) % wheelWords
		if m := e.busy[wi]; m != 0 {
			b := wi*64 + bits.TrailingZeros64(m)
			return e.now + Time((b-base)&wheelMask), true
		}
	}
	return e.slab[e.far[0]].ev.at, true
}

// take advances now to t, the time next reported, moves the far events
// that come within the span into the ring, and removes and returns the
// head of t's bucket. The vacated node is zeroed so the slab does not pin
// the closure alive.
func (e *Engine) take(t Time) event {
	e.now = t
	for len(e.far) > 0 && e.slab[e.far[0]].ev.at-t < wheelSpan {
		e.link(e.popFar())
	}
	b := t & wheelMask
	i := e.head[b]
	n := &e.slab[i]
	ev := n.ev
	if i == e.tail[b] {
		e.busy[b/64] &^= 1 << (b % 64)
	} else {
		e.head[b] = n.next
	}
	*n = node{next: e.free}
	e.free = i
	e.pending--
	e.executed++
	if e.cluster != nil {
		e.cur = Ctx{parent: ev.rank, at: ev.at}
	}
	return ev
}

// pushFar adds node i to the far heap, sifting it up to its position.
func (e *Engine) pushFar(i int32) {
	h := append(e.far, i)
	e.far = h
	ev := &e.slab[i].ev
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / heapArity
		if !ev.before(&e.slab[h[parent]].ev) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = i
}

// popFar removes and returns the far heap's root.
func (e *Engine) popFar() int32 {
	h := e.far
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.far = h
	if n > 0 {
		// Sift last down from the root.
		lev := &e.slab[last].ev
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if e.slab[h[j]].ev.before(&e.slab[h[m]].ev) {
					m = j
				}
			}
			if !e.slab[h[m]].ev.before(lev) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
}

// pastLimit reports whether an event at t lies past Limit, and if so stops
// the engine at its limit.
func (e *Engine) pastLimit(t Time) bool {
	if e.Limit > 0 && t > e.Limit {
		e.stopped = true
		e.limitHit = true
		return true
	}
	return false
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and advances time to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	t, ok := e.next()
	if !ok || e.pastLimit(t) {
		return false
	}
	e.take(t).fn()
	return true
}

// Run executes events until the queue is empty, Stop is called, or the time
// limit (if any) is exceeded. It returns the final simulated time and an
// error if the time limit was hit with work still pending.
func (e *Engine) Run() (Time, error) { return e.RunChecked(0, nil) }

// RunChecked is Run with the progress hook of Cluster.Run: when stepCap is
// positive, onCheck runs after every stepCap executed events, and a
// non-nil error from it aborts the run and is returned unchanged.
func (e *Engine) RunChecked(stepCap uint64, onCheck func(executed uint64) error) (Time, error) {
	var n uint64
	for e.Step() {
		if n++; n == stepCap && onCheck != nil {
			n = 0
			if err := onCheck(e.executed); err != nil {
				return e.now, err
			}
		}
	}
	if e.limitHit {
		return e.now, fmt.Errorf("sim: time limit %d exceeded at t=%d with %d events pending", e.Limit, e.now, e.pending)
	}
	return e.now, nil
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// LimitHit reports whether stepping stopped because the time limit was
// exceeded (for callers driving Step directly instead of Run).
func (e *Engine) LimitHit() bool { return e.limitHit }
