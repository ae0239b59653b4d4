package sim

import "fmt"

// Conservative parallel simulation (PDES) support: a Cluster groups one
// Engine per shard and executes them concurrently in barrier-synchronized
// time windows of width equal to the conservative lookahead (the minimum
// latency of any cross-shard interaction). Within a window every shard only
// executes events it already owns; cross-shard effects are either published
// through DeferTo into the destination shard's next-window inbox, or routed
// through Fence, which quiesces the whole cluster before running.
//
// # Why the merged order equals the serial order
//
// A serial engine executes events in (time, seq) order, where seq is the
// global At-call order. A sharded run cannot maintain a global counter, so
// every event instead carries a rank: a node in the scheduling-lineage tree
// recording (t, parent, idx) — the simulated time at which the event was
// scheduled, the rank of the event that scheduled it, and the index of this
// At call among the scheduler's calls. rankLess compares two ranks by
// walking the lineage:
//
//   - different scheduling times order by time: an At call made at an
//     earlier simulated time precedes one made later, exactly as serial seq
//     does (serial time never goes backwards);
//   - same scheduler orders by call index: serial seq increments per call;
//   - different schedulers at the same time order as the schedulers
//     themselves order, recursively — which is the same comparison one
//     level up the tree.
//
// The recursion grounds out at setup-time ranks (parent == nil), which
// carry a single cluster-wide index and therefore reproduce serial setup
// order directly; a nil parent also orders a scheduler before everything it
// (transitively) scheduled at the same time. By induction over the lineage
// depth, rankLess is a strict total order on the ranks of any one engine's
// events that coincides with the serial (time, seq) order restricted to
// those events. Cross-engine, the window protocol guarantees that events in
// window k+1 carry times at or past window k's horizon, so the
// concatenation of per-window, per-engine executions is a linear extension
// of the serial order in which every pair of *interacting* events (same
// engine, or sender/receiver of a drained cross-shard effect, or
// fence-ordered) is ordered exactly as in the serial run — which is what
// byte-identical artifacts require.
type rankNode struct {
	t      Time
	parent *rankNode
	idx    uint32
}

// rankLess reports whether a orders strictly before b in the reconstructed
// serial order. The two ranks must be distinct nodes of one cluster's
// lineage tree.
func rankLess(a, b *rankNode) bool {
	for {
		if a.t != b.t {
			return a.t < b.t
		}
		if a.parent == b.parent {
			return a.idx < b.idx
		}
		if a.parent == nil {
			return true
		}
		if b.parent == nil {
			return false
		}
		a, b = a.parent, b.parent
	}
}

// Ctx is a scheduling context: the lineage position (parent, at) under
// which new ranks are minted and the running per-scheduler call counter.
type Ctx struct {
	parent *rankNode
	next   uint32
	at     Time
}

// fenceReq is a pending Fence: the rank reserved at the call site (which
// fixes the fence's place in the serial order) and the deferred body.
type fenceReq struct {
	key *rankNode
	fn  func()
}

// deferred is one cross-shard publication: the rank reserved at the DeferTo
// call site and the closure to run against the destination shard at the
// window boundary.
type deferred struct {
	key *rankNode
	fn  func()
}

// report is what a worker sends on the cluster's done channel: end of
// window (neither flag), a posted fence, a step-cap stall, or a panic
// captured from an event body.
type report struct {
	shard    int
	fenced   bool
	stalled  bool
	panicked bool
	pv       any
	rank     *rankNode
}

// window is one barrier-synchronized execution grant: run local events
// strictly before horizon, parking every cap steps if cap > 0.
type window struct {
	horizon Time
	cap     uint64
}

type resumeMsg struct {
	abort bool
}

// Cluster coordinates a set of sharded engines. Create one with NewCluster,
// hand each model node the engine returned by Shard, then call Run once.
// All non-Run methods that aggregate statistics are only safe to call while
// the cluster is quiescent (before Run starts or after it returns).
type Cluster struct {
	engines   []*Engine
	lookahead Time

	// root is the setup-time scheduling context, shared by all engines:
	// its single call counter reproduces the serial seq order of events
	// scheduled before Run (machine construction, fault arming).
	root Ctx
	// override, when non-nil, replaces per-engine contexts during fence
	// resolution and window drain, both of which run on the coordinating
	// goroutine while every worker is parked.
	override *Ctx
	running  bool

	// draining/drainHorizon arm the lookahead-violation guard in
	// Engine.At while drained cross-shard sends replay.
	draining     bool
	drainHorizon Time

	// outbox[src][dst] accumulates cross-shard publications during a
	// window; src rows are only appended by the src worker (or by the
	// coordinator while workers are parked), so no locking is needed.
	outbox [][][]deferred
	// merge is the drain scratch, reused across windows.
	merge []deferred

	start  []chan window
	resume []chan resumeMsg
	done   chan report

	windows uint64
	fencesN uint64
}

// NewCluster creates shards fresh engines coordinated with the given
// conservative lookahead (the minimum simulated latency of any cross-shard
// interaction; cross-shard sends drained at a window boundary must land at
// or past the horizon, which At enforces).
func NewCluster(shards int, lookahead Time) *Cluster {
	if shards < 2 {
		panic("sim: cluster needs at least 2 shards")
	}
	if lookahead <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{
		engines:   make([]*Engine, shards),
		lookahead: lookahead,
		outbox:    make([][][]deferred, shards),
		start:     make([]chan window, shards),
		resume:    make([]chan resumeMsg, shards),
		done:      make(chan report, shards),
	}
	for i := range c.engines {
		e := NewEngine()
		e.cluster = c
		e.shard = i
		c.engines[i] = e
		c.outbox[i] = make([][]deferred, shards)
		c.start[i] = make(chan window)
		c.resume[i] = make(chan resumeMsg)
	}
	return c
}

// Shard returns the engine owning shard i.
func (c *Cluster) Shard(i int) *Engine { return c.engines[i] }

// Windows returns how many barrier windows Run executed.
func (c *Cluster) Windows() uint64 { return c.windows }

// Fences returns how many cluster-wide fences Run resolved.
func (c *Cluster) Fences() uint64 { return c.fencesN }

// CrossSends returns how many DeferTo publications crossed a window
// boundary.
func (c *Cluster) CrossSends() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.crossSends
	}
	return n
}

// Executed sums executed events across shards.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.executed
	}
	return n
}

// MaxPending sums the per-shard event-queue high-water marks.
func (c *Cluster) MaxPending() int {
	var n int
	for _, e := range c.engines {
		n += e.maxPending
	}
	return n
}

// Pending sums events still queued across shards.
func (c *Cluster) Pending() int {
	var n int
	for _, e := range c.engines {
		n += e.pending
	}
	return n
}

// Now returns the latest simulated time any shard has reached.
func (c *Cluster) Now() Time {
	var t Time
	for _, e := range c.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// ctx resolves the scheduling context for an At call on engine e: the
// coordinator's override during fence/drain replay, the shared root context
// outside Run, or the engine's current-event context.
func (c *Cluster) ctx(e *Engine) *Ctx {
	if c.override != nil {
		return c.override
	}
	if !c.running {
		return &c.root
	}
	return &e.cur
}

// DeferTo publishes fn for execution against dst at the current window's
// boundary, in the reconstructed serial order of every publication in the
// window (across all destinations, so global send-order counters stay
// exact). On a serial engine it runs fn inline, so call sites need no mode
// split. The closure must only schedule at or past the window horizon
// (guaranteed whenever the modeled latency is at least the cluster
// lookahead); At panics otherwise.
func (e *Engine) DeferTo(dst *Engine, fn func()) {
	c := e.cluster
	if c == nil || !c.running {
		fn()
		return
	}
	if dst.cluster != c {
		panic("sim: DeferTo across clusters")
	}
	ctx := c.ctx(e)
	key := &rankNode{t: ctx.at, parent: ctx.parent, idx: ctx.next}
	ctx.next++
	e.crossSends++
	c.outbox[e.shard][dst.shard] = append(c.outbox[e.shard][dst.shard], deferred{key: key, fn: fn})
}

// Fence defers fn until every shard in the cluster has quiesced at the
// fence's point in the serial order, then runs it with the whole machine
// state consistent; the posting shard executes nothing between the fence
// call and its resolution. Pending fences from several shards resolve in
// reconstructed serial order. On a serial engine (or while the cluster is
// already quiescent: setup, drain, or another fence's body) fn runs inline.
//
// The posting event must call Fence in tail position: after posting it may
// still publish through DeferTo (whose order is fixed at the call site) but
// must not schedule directly on its own engine — on a serial engine fn has
// already run inline at that point, while on a sharded engine it runs after
// the event body, and a direct At could tie-break differently against fn's
// own scheduling. At enforces this.
func (e *Engine) Fence(fn func()) {
	c := e.cluster
	if c == nil || !c.running || c.override != nil {
		fn()
		return
	}
	if e.fence != nil {
		panic("sim: second Fence posted by one event")
	}
	cur := &e.cur
	key := &rankNode{t: cur.at, parent: cur.parent, idx: cur.next}
	cur.next++
	e.fence = &fenceReq{key: key, fn: fn}
}

// worker drives one shard: for each window grant it executes local events
// strictly before the horizon, parking on a posted fence or on the step cap
// and capturing event panics for deterministic replay by the coordinator.
func (c *Cluster) worker(shard int) {
	e := c.engines[shard]
	for w := range c.start[shard] {
		c.done <- c.runWindow(e, shard, w)
	}
}

func (c *Cluster) runWindow(e *Engine, shard int, w window) (final report) {
	final.shard = shard
	var steps uint64
	for !e.stopped {
		t, ok := e.next()
		if !ok || t >= w.horizon || e.pastLimit(t) {
			break
		}
		if w.cap > 0 && steps >= w.cap {
			c.done <- report{shard: shard, stalled: true}
			if rm := <-c.resume[shard]; rm.abort {
				return final
			}
			steps = 0
			continue
		}
		ev := e.take(t)
		steps++
		if pv := runCaptured(ev.fn); pv != nil {
			final.panicked = true
			final.pv = pv
			final.rank = ev.rank
			return final
		}
		if e.fence != nil {
			c.done <- report{shard: shard, fenced: true}
			if rm := <-c.resume[shard]; rm.abort {
				return final
			}
		}
	}
	return final
}

// runCaptured runs fn and returns a non-nil panic value if it panicked.
// Panics with a nil value are re-thrown as a sentinel so callers can use
// nil to mean "no panic".
func runCaptured(fn func()) (pv any) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
		}
	}()
	fn()
	return nil
}

// drain replays every cross-shard publication accumulated this window in
// one globally rank-sorted pass: the invocation order across all
// destinations is exactly the reconstructed serial order of the DeferTo
// call sites. That global guarantee (not just per-destination) is what lets
// callers keep counters indexed by global send order — the fault injector's
// message coordinate, for one — bitwise identical to the serial run. It
// snapshots and clears the outbox first, so publications made by the
// replayed closures land in the next window.
func (c *Cluster) drain(horizon Time) {
	buf := c.merge[:0]
	for src := range c.engines {
		for dst := range c.engines {
			row := c.outbox[src][dst]
			if len(row) == 0 {
				continue
			}
			buf = append(buf, row...)
			for i := range row {
				row[i] = deferred{}
			}
			c.outbox[src][dst] = row[:0]
		}
	}
	if len(buf) == 0 {
		c.merge = buf
		return
	}
	c.draining = true
	c.drainHorizon = horizon
	// Insertion sort: windows are one lookahead wide, so per-window batches
	// are small; keys are pairwise distinct, so the order is unique.
	for i := 1; i < len(buf); i++ {
		d := buf[i]
		j := i - 1
		for j >= 0 && rankLess(d.key, buf[j].key) {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = d
	}
	for i, d := range buf {
		octx := Ctx{parent: d.key, at: d.key.t}
		c.override = &octx
		d.fn()
		buf[i] = deferred{}
	}
	c.merge = buf[:0]
	c.override = nil
	c.draining = false
}

// Run executes all shards to completion in barrier-synchronized windows and
// returns the final simulated time. stepCap, when positive, bounds the
// events one shard may execute inside a single window before the cluster
// quiesces and onCheck runs (the stall watchdog hook); onCheck also runs
// between windows each time cumulative executed events grow by stepCap. A
// non-nil error from onCheck aborts the run and is returned. Panics raised
// by event bodies are captured per shard and re-thrown on the calling
// goroutine; when several shards panic in one window the serially-earliest
// panic (by rank) wins, matching the serial run.
func (c *Cluster) Run(stepCap uint64, onCheck func(executed uint64) error) (Time, error) {
	if c.running {
		panic("sim: cluster Run re-entered")
	}
	c.running = true
	for i := range c.engines {
		go c.worker(i)
	}
	var (
		parkedFence []int
		parkedStall []int
		closed      bool
	)
	teardown := func() {
		for _, s := range parkedFence {
			c.resume[s] <- resumeMsg{abort: true}
			<-c.done
		}
		for _, s := range parkedStall {
			c.resume[s] <- resumeMsg{abort: true}
			<-c.done
		}
		parkedFence, parkedStall = nil, nil
		for i := range c.start {
			close(c.start[i])
		}
		closed = true
		c.running = false
	}
	defer func() {
		if !closed {
			teardown()
		}
	}()

	var runErr error
	var lastCheck uint64
	n := len(c.engines)
	for runErr == nil {
		t, have := Time(0), false
		stopAll := false
		for _, e := range c.engines {
			if e.stopped {
				// A limit-stopped shard just sits out (the serial loop
				// likewise executes every event at or below Limit before
				// stopping); an explicit Stop halts the whole cluster.
				if !e.limitHit {
					stopAll = true
				}
				continue
			}
			if et, ok := e.next(); ok && (!have || et < t) {
				t, have = et, true
			}
		}
		if !have || stopAll {
			break
		}
		c.windows++
		w := window{horizon: t + c.lookahead, cap: stepCap}
		for i := range c.start {
			c.start[i] <- w
		}
		finished := 0
		var panics []report
		for finished < n {
			if finished+len(parkedFence)+len(parkedStall) == n {
				if len(parkedFence) > 0 {
					best := 0
					for i := 1; i < len(parkedFence); i++ {
						if rankLess(c.engines[parkedFence[i]].fence.key, c.engines[parkedFence[best]].fence.key) {
							best = i
						}
					}
					s := parkedFence[best]
					e := c.engines[s]
					f := e.fence
					e.fence = nil
					c.fencesN++
					octx := Ctx{parent: f.key, at: f.key.t}
					c.override = &octx
					// The poster stays in parkedFence until the body
					// returns, so the deferred teardown can still abort it
					// if the body panics.
					f.fn()
					c.override = nil
					parkedFence = append(parkedFence[:best], parkedFence[best+1:]...)
					c.resume[s] <- resumeMsg{}
					continue
				}
				// Only step-cap stalls are parked: run the watchdog with
				// the cluster quiesced, unless a panic is already pending
				// (then machine state is suspect — just let the window
				// finish so the serially-earliest panic is found).
				if len(panics) == 0 && onCheck != nil {
					if err := onCheck(c.Executed()); err != nil {
						runErr = err
						for _, s := range parkedStall {
							c.resume[s] <- resumeMsg{abort: true}
						}
						parkedStall = nil
						continue
					}
					lastCheck = c.Executed()
				}
				for _, s := range parkedStall {
					c.resume[s] <- resumeMsg{}
				}
				parkedStall = nil
				continue
			}
			rep := <-c.done
			switch {
			case rep.fenced:
				parkedFence = append(parkedFence, rep.shard)
			case rep.stalled:
				parkedStall = append(parkedStall, rep.shard)
			default:
				finished++
				if rep.panicked {
					panics = append(panics, rep)
				}
			}
		}
		if len(panics) > 0 {
			teardown()
			best := 0
			for i := 1; i < len(panics); i++ {
				if rankLess(panics[i].rank, panics[best].rank) {
					best = i
				}
			}
			panic(panics[best].pv)
		}
		if runErr != nil {
			break
		}
		c.drain(w.horizon)
		if onCheck != nil && stepCap > 0 {
			if ex := c.Executed(); ex-lastCheck >= stepCap {
				if err := onCheck(ex); err != nil {
					runErr = err
					break
				}
				lastCheck = ex
			}
		}
	}
	teardown()
	now := c.Now()
	if runErr != nil {
		return now, runErr
	}
	for _, e := range c.engines {
		if e.limitHit {
			return now, fmt.Errorf("sim: time limit %d exceeded at t=%d with %d events pending", e.Limit, now, c.Pending())
		}
	}
	return now, nil
}
