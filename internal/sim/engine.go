// Package sim provides the deterministic discrete-event simulation engine
// underlying the CC-NUMA machine model. Simulated time is measured in
// compute-processor clock cycles (5 ns at 200 MHz, matching the paper's
// parameter tables). All model components schedule Actions on a single
// Engine; the engine fires them in (time, sequence) order, which makes
// every simulation bit-for-bit reproducible. A model step is a named
// pointer type over the long-lived object it acts on (a processor, a bus
// transaction, a network frame), whose Fire calls the step directly, so
// scheduling it allocates nothing; Func adapts the plain functions that
// remain.
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

// Action is one unit of scheduled work: the engine calls Fire once, at the
// cycle it was scheduled for. The model's steps are named pointer types
// over long-lived objects, such as
//
//	type strobeStep Txn
//	func (s *strobeStep) Fire() { ... }
//
// scheduled as (*strobeStep)(txn): converting a pointer to an Action
// allocates nothing, and each step's Fire calls its step directly
// (DESIGN §11.5).
type Action interface {
	Fire()
}

// Func adapts a plain function to an Action, for work that is not a step of
// a long-lived object: tests, fault arming, the sampler, lock retries. A
// function value converts to an Action without allocating, but a function
// literal that captures variables allocates each time it is evaluated.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// node is one slot of the ring's slab: a pending event's action and the
// slab index of the next node in its bucket or in the free list (-1 ends
// the free list), 24 bytes. A node holds neither a time nor a sequence
// number: its bucket is its time, and on a serial engine its place in the
// bucket is its place in scheduling order (see At). On a sharded engine
// each node's rank sits beside the slab, in Engine.ranks.
//
// Events are stored inside the slab, so the engine allocates nothing per
// event.
type node struct {
	act  Action
	next int32
}

// farEvent is an event scheduled at least wheelSpan cycles ahead, held by
// value (40 bytes) in the far heap until it comes within the span. seq
// numbers far events in scheduling order and orders them among themselves;
// rank is nil on a serial engine, and on a sharded one (one that belongs to
// a Cluster) it is the event's scheduling-lineage rank, which reconstructs
// the serial order without a global sequence counter (see shard.go).
type farEvent struct {
	at   Time
	seq  uint64
	rank *rankNode
	act  Action
}

// before reports whether f orders ahead of o: by (time, seq) on a serial
// engine, by (time, rank) on a sharded one. An engine never mixes ranked
// and unranked events, so the nil check only selects the mode.
func (f *farEvent) before(o *farEvent) bool {
	if f.at != o.at {
		return f.at < o.at
	}
	if f.rank == nil {
		return f.seq < o.seq
	}
	return rankLess(f.rank, o.rank)
}

const (
	// wheelSpan is the calendar ring's width in cycles: an event less than
	// wheelSpan cycles ahead of now waits in the bucket for its cycle. The
	// machine model schedules 99.9% of its events at most 127 cycles ahead;
	// the rest (barrier costs, fault delays, request timeouts, sampler
	// periods) wait in the far heap. A power of two, so a time's bucket is
	// its low bits.
	wheelSpan  = 256
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64

	// heapArity is the fan-out of the far heap. A 4-ary heap halves the
	// tree depth of a binary heap at the price of a few extra sibling
	// comparisons per level.
	heapArity = 4

	// firstSlab is the slab capacity the first ring event reserves: room
	// for the ring of every machine the benchmarks build (a base-size 16x4
	// machine keeps at most 177 events within the span), which then never
	// regrows. Reserving it at the first event rather than in NewEngine
	// keeps building a machine from paying for it.
	firstSlab = 256

	// firstFar is the least capacity the first far event reserves. A
	// Robust machine keeps a request timeout far ahead for every remote
	// miss in flight: a robust 4x2 test-size cell holds up to 192 (fft)
	// and 335 (ocean) far events, and radix's 1,206 take two doublings.
	firstFar = 512
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
// CACM 31(10), 1988): a ring of wheelSpan one-cycle buckets of slab nodes
// holds every event less than wheelSpan cycles ahead of now, and the far
// heap holds the rest by value. Every far event is later than every ring
// event: whenever now advances, the far events that come within the span
// move into the ring before any event at the new time runs. Every ring
// event lies within the span, so a bucket holds one time, and the head of
// the first non-empty bucket at or after now is the next event. Run finds
// each cycle once and then runs its bucket to the end (DESIGN §11.2).
type Engine struct {
	now Time
	// seq counts the events pushed onto the far heap, to order them.
	seq uint64
	// slab holds every ring event; the nodes in no bucket form a free list
	// headed by free. A simulation reaches its high-water ring depth once
	// and then schedules allocation-free.
	slab []node
	free int32
	// ranks parallels slab on a sharded engine, holding each ring node's
	// rank; it stays nil on a serial engine.
	ranks []*rankNode
	// pending counts the events in the ring and the far heap.
	pending int
	// head and tail index the first and last node of each ring bucket;
	// they are meaningful only while the bucket's bit in busy is set.
	head, tail [wheelSpan]int32
	busy       [wheelWords]uint64
	// far is a heapArity-ary min-heap of the events at least wheelSpan
	// cycles ahead. Its first reservation is the larger of firstFar and
	// the queue's high-water mark, and it doubles when full.
	far []farEvent
	// stopped is set by Stop; Run drains no further events once set.
	stopped bool
	// executed counts events run, for debugging, runaway detection, and
	// events-per-second throughput accounting (obs.MeasurePerf).
	executed uint64
	// maxPending tracks the queue's high-water mark, ring and far heap
	// together.
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
	return &Engine{free: -1}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// MaxPending reports the event queue's high-water mark: the number of
// events, in the ring and the far heap, a simulation of this shape holds
// at once.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules a to fire at absolute time t. Scheduling in the past panics:
// it always indicates a model bug rather than a recoverable condition.
//
// On a serial engine, a joins the tail of t's bucket without a comparison:
// every event already in that bucket was scheduled earlier, because a far
// event moves into its bucket at the advance that brings it within the
// span, before anything can be scheduled straight into that bucket. So the
// order of a bucket is the order of the At calls.
func (e *Engine) At(t Time, a Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	var rank *rankNode
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
		rank = &rankNode{t: ctx.at, parent: ctx.parent, idx: ctx.next}
		ctx.next++
	}
	if t-e.now < wheelSpan {
		e.link(t, e.alloc(a, rank))
	} else {
		e.seq++
		e.pushFar(farEvent{at: t, seq: e.seq, rank: rank, act: a})
	}
	if e.pending++; e.pending > e.maxPending {
		e.maxPending = e.pending
	}
}

// After schedules a to fire d cycles from now.
func (e *Engine) After(d Time, a Action) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, a)
}

// alloc stores a (and on a sharded engine its rank) in a free slab node,
// growing the slab only when every node is in a bucket. The first ring
// event reserves firstSlab nodes.
func (e *Engine) alloc(a Action, rank *rankNode) int32 {
	i := e.free
	if i >= 0 {
		e.free = e.slab[i].next
	} else {
		if e.slab == nil {
			e.slab = make([]node, 0, firstSlab)
			if e.cluster != nil {
				e.ranks = make([]*rankNode, 0, firstSlab)
			}
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, node{})
		if e.cluster != nil {
			e.ranks = append(e.ranks, nil)
		}
	}
	e.slab[i].act = a
	if rank != nil {
		e.ranks[i] = rank
	}
	return i
}

// link adds node i to the tail of t's ring bucket. On a sharded engine a
// bucket is kept in rank order, and a drained cross-shard send or a fence
// body can order before events its shard already holds for that cycle; only
// then does link walk the bucket.
func (e *Engine) link(t Time, i int32) {
	b := t & wheelMask
	w, bit := b/64, uint64(1)<<(b%64)
	if e.busy[w]&bit == 0 {
		e.busy[w] |= bit
		e.head[b], e.tail[b] = i, i
		return
	}
	if e.ranks != nil && !rankLess(e.ranks[e.tail[b]], e.ranks[i]) {
		// i orders before the tail, so the walk stops at or before it.
		r := e.ranks[i]
		p := &e.head[b]
		for !rankLess(r, e.ranks[*p]) {
			p = &e.slab[*p].next
		}
		e.slab[i].next = *p
		*p = i
		return
	}
	e.slab[e.tail[b]].next = i
	e.tail[b] = i
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
	return e.far[0].at, true
}

// advance moves now to t, the time next reported, and moves the far events
// that come within the span into the ring, in far-heap order, so that every
// event due before now+wheelSpan, t's included, waits in its bucket.
func (e *Engine) advance(t Time) {
	e.now = t
	for len(e.far) > 0 && e.far[0].at-t < wheelSpan {
		f := e.popFar()
		e.link(f.at, e.alloc(f.act, f.rank))
	}
}

// take removes the head of now's bucket, which must hold an event, and
// returns its action. The vacated node is cleared so the slab does not
// pin the action's object alive. On a sharded engine Cluster.runWindow
// also moves the node's rank into the scheduling context; take leaves
// ranks alone so that it stays small enough to inline into the serial run
// loop.
func (e *Engine) take() Action {
	b := e.now & wheelMask
	i := e.head[b]
	n := &e.slab[i]
	a := n.act
	if i == e.tail[b] {
		e.busy[b/64] &^= 1 << (b % 64)
	} else {
		e.head[b] = n.next
	}
	n.act = nil
	n.next = e.free
	e.free = i
	e.pending--
	e.executed++
	return a
}

// pushFar adds f to the far heap, sifting it up to its position. A full
// heap doubles; the first push reserves the larger of firstFar and the
// queue's high-water mark.
func (e *Engine) pushFar(f farEvent) {
	h := e.far
	if len(h) == cap(h) {
		n := 2 * cap(h)
		if n == 0 {
			n = max(firstFar, e.maxPending)
		}
		h = append(make([]farEvent, 0, n), h...)
	}
	h = h[:len(h)+1]
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / heapArity
		if !f.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = f
	e.far = h
}

// popFar removes and returns the far heap's root, clearing the vacated
// entry so the heap does not pin the action's object alive.
func (e *Engine) popFar() farEvent {
	h := e.far
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = farEvent{}
	h = h[:n]
	e.far = h
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			end := min(c+heapArity, n)
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
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
	e.advance(t)
	e.take().Fire()
	return true
}

// Run executes events until the queue is empty, Stop is called, or the time
// limit (if any) is exceeded. It returns the final simulated time and an
// error if the time limit was hit with work still pending.
func (e *Engine) Run() (Time, error) { return e.RunChecked(0, nil) }

// RunChecked is Run with the progress hook of Cluster.Run: when stepCap is
// positive, onCheck runs after every stepCap executed events, and a
// non-nil error from it aborts the run and is returned unchanged.
//
// It runs the events Step would, in the same order, one cycle at a time:
// it finds the next cycle, checks it against Limit and advances to it once,
// then takes the head of the cycle's bucket until the bucket is empty or
// Stop has been called. An event scheduled for the current cycle joins the
// bucket's tail and runs in the same drain.
func (e *Engine) RunChecked(stepCap uint64, onCheck func(executed uint64) error) (Time, error) {
	var n uint64
	for !e.stopped {
		t, ok := e.next()
		if !ok || e.pastLimit(t) {
			break
		}
		e.advance(t)
		b := t & wheelMask
		busy, bit := &e.busy[b/64], uint64(1)<<(b%64)
		for {
			e.take().Fire()
			if n++; n == stepCap && onCheck != nil {
				n = 0
				if err := onCheck(e.executed); err != nil {
					return e.now, err
				}
			}
			if *busy&bit == 0 || e.stopped {
				break
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
