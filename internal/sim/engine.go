// Package sim provides the deterministic discrete-event simulation engine
// underlying the CC-NUMA machine model. Simulated time is measured in
// compute-processor clock cycles (5 ns at 200 MHz, matching the paper's
// parameter tables). All model components schedule closures on a single
// Engine; the engine executes them in (time, sequence) order, which makes
// every simulation bit-for-bit reproducible.
package sim

import (
	"fmt"
)

// Time is a simulated timestamp or duration in compute-processor cycles
// (5 ns each). Negative durations are invalid.
type Time int64

// Nanoseconds converts a Time to nanoseconds using the paper's 200 MHz
// compute-processor clock.
func (t Time) Nanoseconds() float64 { return float64(t) * 5.0 }

// event is a scheduled closure. seq breaks ties between events scheduled for
// the same cycle so execution order is insertion order (deterministic).
// Events are stored by value inside the engine's heap slab: scheduling one
// performs no per-event heap allocation (the closure the caller passes is
// the only allocation on the scheduling path).
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

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading a few extra sibling comparisons (which hit
// the same cache line, since events are stored by value) for fewer
// level-to-level moves — the winning trade for the short-horizon reschedule
// pattern that dominates the machine model.
const heapArity = 4

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine. Engine is not safe for concurrent use: all model code
// runs on the single goroutine that called Run (workload programs run as
// coroutines that the engine switches to directly, so a program runs only
// while the engine is suspended inside the event that resumed it).
// Independent simulations each own their engine, so whole runs can execute
// concurrently (see internal/runner).
type Engine struct {
	now Time
	seq uint64
	// events is a value-typed heapArity-ary min-heap ordered by (at, seq).
	// The backing array doubles as the event slab: pops shrink the slice
	// without releasing capacity, so a simulation reaches its high-water
	// queue depth once and then schedules allocation-free.
	events []event
	// stopped is set by Stop; Run drains no further events once set.
	stopped bool
	// executed counts events run, for debugging, runaway detection, and
	// events-per-second throughput accounting (obs.MeasurePerf).
	executed uint64
	// maxPending tracks the heap's high-water mark (slab size reporting).
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
	e.push(ev)
	if len(e.events) > e.maxPending {
		e.maxPending = len(e.events)
	}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// push appends ev and sifts it up to its heap position.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	e.events = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the minimum event. The vacated slot at the slab
// tail is zeroed so the engine does not pin the popped closure alive.
func (e *Engine) pop() event {
	h := e.events
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n > 0 {
		// Sift last down from the root.
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
	return min
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and advances time to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.stopped || len(e.events) == 0 {
		return false
	}
	if e.Limit > 0 && e.events[0].at > e.Limit {
		e.stopped = true
		e.limitHit = true
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.executed++
	if e.cluster != nil {
		e.cur = Ctx{parent: ev.rank, at: ev.at}
	}
	ev.fn()
	return true
}

// Sharded reports whether the engine belongs to a Cluster. Model components
// use it to route cross-shard effects through DeferTo/Fence instead of
// calling into another engine directly.
func (e *Engine) Sharded() bool { return e.cluster != nil }

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
		return e.now, fmt.Errorf("sim: time limit %d exceeded at t=%d with %d events pending", e.Limit, e.now, len(e.events))
	}
	return e.now, nil
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.events) }

// LimitHit reports whether stepping stopped because the time limit was
// exceeded (for callers driving Step directly instead of Run).
func (e *Engine) LimitHit() bool { return e.limitHit }
