// Package cpu implements the execution-driven compute-processor model.
// Each simulated processor runs its workload program as a coroutine of the
// engine (prog.Program) and models the program's operation stream: each
// operation's compute cycles elapse first, then its shared-memory load or
// store goes to the timing model (L1 -> L2 -> SMP bus -> coherence
// controller), the next when the previous access completes, as in the
// Augmint model the paper used. The program itself runs ahead, buffering
// loads and stores until its next synchronization operation, so the
// engine switches into it once per batch rather than once per reference;
// the operations and their simulated times are the same either way.
// Control switches directly between the engine and one program, so only one
// of them ever runs at a time and simulations stay deterministic.
package cpu

import (
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
)

// SyncHandler implements machine-level synchronization: the processor
// hands barrier/lock operations to it and expects Resume to be called when
// the processor may continue.
type SyncHandler interface {
	Barrier(p *Proc)
	Lock(p *Proc, id int)
	Unlock(p *Proc, id int)
}

// Proc is one simulated compute processor.
type Proc struct {
	eng   *sim.Engine
	cfg   *config.Config
	id    int // global processor index
	node  int
	bus   *smpbus.Bus
	src   int // snooper index on the bus
	space *memaddr.Space
	sync  SyncHandler
	tr    *obs.Tracer // nil when tracing and attribution are off

	// l2 holds each line's state, and its shadow value in the way's word.
	// l1 tracks presence: inclusion keeps every L1 line in L2, and an L1
	// way's word is the L2 way holding its line, so an L1 hit reaches the
	// line's state and value without searching L2.
	l1 *cache.Cache
	l2 *cache.Cache

	// valSeq numbers this processor's stores (see store). snoopVal is
	// the value of the line the most recent Snoop found present, read
	// before that snoop downgraded or invalidated the copy; the bus reads
	// it through SnoopData when this processor supplies the line.
	valSeq   uint64
	snoopVal uint64
	// lastRead and lastWrite record the shadow value observed by the most
	// recent completed load and produced by the most recent completed
	// store (read by the protocol checker's replays between operations).
	lastRead  uint64
	lastWrite uint64

	// co is the program (nil until Run). cur is the one operation in
	// flight while its compute cycles elapse: the next is taken from the
	// program only when that one completes, so there is never a second,
	// and cur stays valid until then.
	co  *prog.Program
	cur *prog.Op

	// syncCb, when set, fires at the completion of an access issued by the
	// synchronization layer instead of resuming the program.
	syncCb sim.Action

	// miss is the bus transaction of the in-flight miss or upgrade, issued
	// again for every attempt: an in-order processor has at most one in
	// flight. Its Line and Kind name the access between attempts.
	// missDoneFn is missDone for it, bound once so that an issue does not
	// allocate.
	miss       smpbus.Txn
	missDoneFn func(smpbus.Outcome)

	// wbFree holds the processor's idle write-back transactions. Several
	// write-backs can be in flight, so each has its own, recycled once its
	// Done has run.
	wbFree sim.FreeList[wbTxn]

	// Statistics.
	instructions uint64
	reads        uint64
	writes       uint64
	l1Hits       uint64
	l2Hits       uint64
	misses       uint64
	upgrades     uint64
	retries      uint64
	finished     bool
	finishedAt   sim.Time
	missLat      stats.Histogram
	missStart    sim.Time // start of the in-flight miss (one per processor)
	missActive   bool
	// retryStreak counts consecutive bus aborts of the in-flight miss, for
	// the exponential back-off gated on Config.Robust.
	retryStreak int

	// missTxn is the causal-span ID of the in-flight miss episode when
	// the tracer is attributing, minted like shadow write values: processor
	// index in the high word, per-processor sequence in the low word.
	missTxn uint64
	missSeq uint64
}

// New creates a processor attached to its node's bus. tr may be nil.
func New(eng *sim.Engine, cfg *config.Config, id, node int, bus *smpbus.Bus,
	space *memaddr.Space, sync SyncHandler, tr *obs.Tracer) *Proc {
	p := &Proc{
		eng:   eng,
		cfg:   cfg,
		id:    id,
		node:  node,
		bus:   bus,
		space: space,
		sync:  sync,
		tr:    tr,
		l1:    cache.New(cfg.L1Size, cfg.L1Assoc, cfg.LineSize),
		l2:    cache.New(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
	}
	p.missDoneFn = func(o smpbus.Outcome) {
		p.missDone(p.miss.Line, p.miss.Kind, p.miss.RequesterOwns, o)
	}
	p.src = bus.AttachSnooper(p)
	p.miss.Src = p.src
	return p
}

// The processor's scheduled steps, one type each over Proc, scheduled as
// (*resumeStep)(p) and so on: converting the processor to a step allocates
// nothing.
type (
	resumeStep Proc // takes and models the program's next operation
	execStep   Proc // executes cur once its compute cycles have elapsed
	issueStep  Proc // issues the in-flight miss
	retryStep  Proc // re-evaluates the in-flight miss after a bounce
)

func (s *resumeStep) Fire() { (*Proc)(s).resumeProgram() }
func (s *execStep) Fire()   { p := (*Proc)(s); p.execOp(p.cur) }
func (s *issueStep) Fire()  { p := (*Proc)(s); p.issueMiss(p.miss.Line, p.miss.Kind) }
func (s *retryStep) Fire()  { p := (*Proc)(s); p.retryAccess(p.miss.Line, p.miss.Kind) }

// ID returns the processor's global index.
func (p *Proc) ID() int { return p.id }

// Node returns the processor's node index.
func (p *Proc) Node() int { return p.node }

// Instructions returns the instruction count (compute cycles plus one per
// memory reference, the paper's 1-IPC in-order assumption).
func (p *Proc) Instructions() uint64 { return p.instructions }

// Finished reports whether the program has completed, and when.
func (p *Proc) Finished() (bool, sim.Time) { return p.finished, p.finishedAt }

// L2Lines returns the number of valid lines in the processor's L2 cache.
func (p *Proc) L2Lines() int { return p.l2.Count() }

// ForEachL2Line visits every valid line in the processor's L2 cache (for
// end-of-run coherence invariant checks).
func (p *Proc) ForEachL2Line(fn func(line uint64, st cache.State)) {
	p.l2.Lines(func(_ cache.Way, line uint64, st cache.State) bool {
		fn(line, st)
		return true
	})
}

// ForEachL1Line visits every valid line in the processor's L1 cache (the
// model checker folds L1 presence into its abstract state hash).
func (p *Proc) ForEachL1Line(fn func(line uint64, st cache.State)) {
	p.l1.Lines(func(_ cache.Way, line uint64, st cache.State) bool {
		fn(line, st)
		return true
	})
}

// CheckInclusion reports the first L1 line, in set order, whose link does
// not name an L2 way holding the line: every line in L1 must be valid in
// L2, in the way its L1 way's word names.
func (p *Proc) CheckInclusion() error {
	var err error
	p.l1.Lines(func(w cache.Way, line uint64, _ cache.State) bool {
		if !p.l2.Holds(cache.Way(p.l1.Word(w)), line) {
			_, st := p.l2.Lookup(line)
			err = fmt.Errorf("inclusion: proc %d holds line %#x in L1, but the L2 way it links does not hold it (L2 state %v)",
				p.id, line, st)
			return false
		}
		return true
	})
	return err
}

// L2State returns the L2 state of a line without touching LRU.
func (p *Proc) L2State(line uint64) cache.State {
	_, st := p.l2.Lookup(line)
	return st
}

// LineValue returns the shadow value of a line the processor holds in its
// L2, or zero if it does not hold the line: a copy's value leaves with the
// copy. Callers check L2State first.
func (p *Proc) LineValue(line uint64) uint64 {
	w, st := p.l2.Lookup(line)
	if st == cache.Invalid {
		return 0
	}
	return p.l2.Word(w)
}

// LastReadValue returns the shadow value observed by the most recently
// completed load.
func (p *Proc) LastReadValue() uint64 { return p.lastRead }

// LastWriteValue returns the shadow value produced by the most recently
// completed store.
func (p *Proc) LastWriteValue() uint64 { return p.lastWrite }

// store mints a globally unique shadow value for a completed store to the
// line in L2 way w: the processor index in the high word and a
// per-processor sequence number in the low word (no shared counter, so
// replays stay deterministic).
func (p *Proc) store(w cache.Way) {
	p.valSeq++
	v := uint64(p.id+1)<<32 | p.valSeq
	p.l2.SetWord(w, v)
	p.lastWrite = v
}

// MissLatencies returns the processor's miss service-time distribution.
func (p *Proc) MissLatencies() *stats.Histogram { return &p.missLat }

// AddCounters adds the processor's reference statistics to counters, each
// under its name, zero counts included.
func (p *Proc) AddCounters(counters map[string]uint64) {
	counters["reads"] += p.reads
	counters["writes"] += p.writes
	counters["l1Hits"] += p.l1Hits
	counters["l2Hits"] += p.l2Hits
	counters["misses"] += p.misses
	counters["upgrades"] += p.upgrades
	counters["busRetries"] += p.retries
}

// Run prepares the program coroutine and schedules its first time slice.
// The program must use only the provided Env for shared-memory access.
func (p *Proc) Run(program func(*prog.Env)) {
	p.co = prog.Start(p.id, p.node, program)
	p.eng.At(p.eng.Now(), (*resumeStep)(p))
}

// Stop releases the program coroutine: a program parked mid-operation
// unwinds without issuing anything further. A finished processor has
// already released its program, and one never Run has none, so Stop is
// always safe; the machine calls it on every exit path of a run.
func (p *Proc) Stop() {
	if p.co != nil {
		p.co.Stop()
	}
}

// Resume lets the synchronization handler continue a parked processor.
func (p *Proc) Resume() {
	p.resumeProgram()
}

// ResumeAt continues a parked processor at cycle t of its own engine.
func (p *Proc) ResumeAt(t sim.Time) { p.eng.At(t, (*resumeStep)(p)) }

// SyncAccess models a load/store issued by the synchronization layer on
// behalf of the parked program (a lock-line acquisition or release). done
// fires at completion instead of resuming the program.
func (p *Proc) SyncAccess(addr uint64, write bool, done sim.Action) {
	if p.syncCb != nil {
		panic("cpu: overlapping SyncAccess")
	}
	p.syncCb = done
	p.instructions++
	if write {
		p.writes++
	} else {
		p.reads++
	}
	p.access(addr, write)
}

// resumeProgram takes the program's next operation, switching to the
// program coroutine if it has none buffered, and models it after its
// compute cycles. The compute a program charges after its last operation,
// which Done carries, is not modelled. The engine is suspended while the
// program computes, which serializes all program execution
// deterministically.
func (p *Proc) resumeProgram() {
	o := p.co.Next()
	if o.Comp > 0 && o.Kind != prog.Done {
		p.instructions += uint64(o.Comp)
		p.cur = o
		p.eng.After(sim.Time(o.Comp), (*execStep)(p))
		return
	}
	p.execOp(o)
}

func (p *Proc) execOp(o *prog.Op) {
	switch o.Kind {
	case prog.Read, prog.Write:
		p.instructions++
		if o.Kind == prog.Read {
			p.reads++
		} else {
			p.writes++
		}
		p.access(o.Addr, o.Kind == prog.Write)
	case prog.Barrier:
		p.sync.Barrier(p)
	case prog.Lock:
		p.sync.Lock(p, o.ID)
	case prog.Unlock:
		p.sync.Unlock(p, o.ID)
	case prog.Done:
		p.finished = true
		p.finishedAt = p.eng.Now()
		p.co.Stop()
	default:
		panic(fmt.Sprintf("cpu: unknown op %v", o.Kind))
	}
}

// access models one load or store.
func (p *Proc) access(addr uint64, write bool) {
	line := p.space.Line(addr)

	// L1: presence filter, linked to the line's L2 way. Writes
	// additionally require L2 exclusivity.
	if w1, st1 := p.l1.Touch(line); st1 != cache.Invalid {
		w := cache.Way(p.l1.Word(w1))
		if !p.l2.Holds(w, line) {
			panic(fmt.Sprintf("cpu: proc %d holds line %#x in L1, but the L2 way it links does not hold it (inclusion broken)",
				p.id, line))
		}
		st := p.l2.Use(w)
		if !write {
			p.l1Hits++
			p.lastRead = p.l2.Word(w)
			p.finishAccess(p.cfg.L1HitTime)
			return
		}
		if st == cache.Modified || st == cache.Exclusive {
			p.l1Hits++
			p.l2.SetState(w, cache.Modified)
			p.store(w)
			p.finishAccess(p.cfg.L1HitTime)
			return
		}
		// A write to a Shared or Owned line needs exclusivity: it stamps
		// the L2 way a second time, as the L2 access of an L1 miss
		// would, and upgrades.
		p.l2.Use(w)
		p.upgrade(line)
		return
	}

	if p.space.Home(line) < 0 {
		// First touch under first-touch placement assigns the page here.
		// The placement table is shared by every node, so on a sharded
		// engine the assignment runs under a cluster fence and the access
		// re-enters once the home is set (nothing above this point has
		// side effects: an L1 miss changes nothing, so re-entry is safe).
		// On a serial engine the fence body runs inline and this is the
		// plain assign-and-continue path. A line in L1 always has a home.
		p.eng.Fence(func() {
			p.space.HomeOrAssign(line, p.node)
			p.access(addr, write)
		})
		return
	}

	w, st := p.l2.Touch(line)
	switch {
	case st == cache.Invalid:
		p.misses++
		p.missStart = p.eng.Now()
		p.missActive = true
		if p.tr.Attributing() {
			p.missSeq++
			p.missTxn = uint64(p.id+1)<<32 | p.missSeq
			p.tr.SpanStart(p.missTxn, p.node, line, p.missStart)
			p.tr.SpanBegin(p.missTxn, obs.StageStall, 0, p.missStart)
		}
		p.miss.Line, p.miss.Kind = line, smpbus.Read
		if write {
			p.miss.Kind = smpbus.ReadEx
		}
		p.eng.After(p.cfg.L2MissDetect, (*issueStep)(p))
	case !write:
		p.l2Hits++
		p.lastRead = p.l2.Word(w)
		p.installL1(line, w)
		p.finishAccess(p.cfg.L2HitTime)
	case st == cache.Modified || st == cache.Exclusive:
		p.l2Hits++
		p.l2.SetState(w, cache.Modified)
		p.store(w)
		p.installL1(line, w)
		p.finishAccess(p.cfg.L2HitTime)
	default: // write to Shared or Owned
		p.upgrade(line)
	}
}

// upgrade issues an Upgrade for a write to a line L2 holds Shared or
// Owned.
func (p *Proc) upgrade(line uint64) {
	p.upgrades++
	p.miss.Line, p.miss.Kind = line, smpbus.Upgrade
	p.eng.After(p.cfg.L2MissDetect, (*issueStep)(p))
}

// requesterOwns reports whether an Upgrade should carry the
// dirty-ownership mark (the line is Owned in our L2 at issue time).
func (p *Proc) requesterOwns(line uint64, kind smpbus.Kind) bool {
	return kind == smpbus.Upgrade && p.L2State(line) == cache.Owned
}

// issueMiss puts the miss transaction on the bus and handles its outcome,
// retrying with a re-evaluated cache state when bounced. Done is re-armed on
// every issue: the controller wraps it while it serves one issue.
func (p *Proc) issueMiss(line uint64, kind smpbus.Kind) {
	txn := &p.miss
	txn.Kind = kind
	txn.Line = line
	txn.HomeLocal = p.space.Home(line) == p.node
	txn.RequesterOwns = p.requesterOwns(line, kind)
	txn.Attr = 0
	txn.Done = p.missDoneFn
	if p.missActive {
		txn.Attr = p.missTxn
		p.tr.SpanEnd(p.missTxn, obs.StageStall, 0, p.eng.Now())
	}
	p.bus.Issue(txn)
}

// busBackoff returns the delay before re-issuing an aborted bus
// transaction: the fixed BusRetry interval, or — on a Robust machine —
// BusRetry doubled per consecutive abort and capped at
// config.RobustBusBackoffMax, so requesters bounced off a full controller
// queue spread out instead of retrying in lockstep. Without the recovery
// layer this is exactly the pre-robustness constant.
func (p *Proc) busBackoff() sim.Time {
	d := p.cfg.BusRetry
	if p.cfg.Robust {
		for i := 0; i < p.retryStreak; i++ {
			d <<= 1
			if d >= config.RobustBusBackoffMax {
				d = config.RobustBusBackoffMax
				break
			}
		}
		p.retryStreak++
	}
	return d
}

func (p *Proc) missDone(line uint64, kind smpbus.Kind, owned bool, o smpbus.Outcome) {
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "missDone", kind.String())
	switch o.Status {
	case smpbus.RetryNeeded:
		p.retries++
		p.tr.SpanBegin(p.missTxn, obs.StageBackoff, 0, p.eng.Now())
		p.eng.After(p.busBackoff(), (*retryStep)(p))
		return
	case smpbus.OK:
		p.retryStreak = 0
	default:
		panic(fmt.Sprintf("cpu: unexpected miss outcome %+v", o))
	}
	switch kind {
	case smpbus.Read:
		st := cache.Exclusive
		if o.Shared {
			st = cache.Shared
		}
		p.installL2(line, st, o.Data)
		p.lastRead = o.Data
	case smpbus.ReadEx:
		p.store(p.installL2(line, cache.Modified, o.Data))
	case smpbus.Upgrade:
		if o.WithData {
			// The reply carried the full line (deferred upgrades convert
			// to read-exclusive at the home, and in-node ownership
			// transfers move the line cache-to-cache).
			p.store(p.installL2(line, cache.Modified, o.Data))
			break
		}
		w, st := p.l2.Lookup(line)
		if owned && st != cache.Owned {
			// A dirty-owner grant is valid only if we still hold the line
			// Owned: a home-initiated intervention may have downgraded or
			// invalidated it while the upgrade was in flight, in which
			// case global ownership moved and we must restart.
			p.eng.After(p.cfg.BusRetry, (*retryStep)(p)) // retries the Upgrade
			return
		}
		if st == cache.Invalid {
			// A bare home grant may arrive after an intervening
			// invalidation removed our copy; in that case restart as a
			// full read-exclusive.
			p.issueMiss(line, smpbus.ReadEx)
			return
		}
		p.l2.SetState(w, cache.Modified)
		p.store(w)
		p.installL1(line, w)
	case smpbus.WriteBack, smpbus.Inval, smpbus.Fetch, smpbus.FetchEx:
		panic(fmt.Sprintf("cpu: miss completion for non-processor kind %v line %#x", kind, line))
	default:
		panic(fmt.Sprintf("cpu: miss completion for unknown kind %v line %#x", kind, line))
	}
	p.finishMiss()
	p.finishAccess(p.cfg.FillRestart)
}

// retryAccess re-evaluates the cache state after a bus bounce: a snoop
// may have downgraded or invalidated the line in the meantime. The line
// cannot have arrived: the L2 gains a line only through this processor's
// own missDone, and the processor has one access in flight.
func (p *Proc) retryAccess(line uint64, kind smpbus.Kind) {
	p.tr.SpanEnd(p.missTxn, obs.StageBackoff, 0, p.eng.Now())
	_, st := p.l2.Touch(line)
	switch kind {
	case smpbus.Read:
		if st != cache.Invalid {
			panic(fmt.Sprintf("cpu: proc %d retry of %v line %#x found it %v while its miss was in flight",
				p.id, kind, line, st))
		}
	case smpbus.ReadEx, smpbus.Upgrade:
		switch st {
		case cache.Modified, cache.Exclusive:
			panic(fmt.Sprintf("cpu: proc %d retry of %v line %#x found it %v while its miss was in flight",
				p.id, kind, line, st))
		case cache.Shared, cache.Owned:
			kind = smpbus.Upgrade
		case cache.Invalid:
			kind = smpbus.ReadEx
		default:
			panic(fmt.Sprintf("cpu: unknown cache state %v retrying line %#x", st, line))
		}
	case smpbus.WriteBack, smpbus.Inval, smpbus.Fetch, smpbus.FetchEx:
		panic(fmt.Sprintf("cpu: retry of non-processor kind %v line %#x", kind, line))
	default:
		panic(fmt.Sprintf("cpu: retry of unknown kind %v line %#x", kind, line))
	}
	p.issueMiss(line, kind)
}

// installL2 inserts a line filled with value v, writing back a dirty
// victim with the victim's value and keeping L1 inclusive: the victim
// leaves L1 too, so the only L1 way that links the line's L2 way is the
// line's own. It returns the line's L2 way.
func (p *Proc) installL2(line uint64, st cache.State, v uint64) cache.Way {
	w, victim, vstate, vval := p.l2.Insert(line, st)
	p.l2.SetWord(w, v)
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "install", st.String())
	if vstate != cache.Invalid {
		p.tr.Cache(p.eng.Now(), p.node, p.src, victim, "evict", vstate.String())
		p.l1.Invalidate(victim)
		if vstate.Dirty() {
			p.writeBack(victim, vval)
		}
	}
	p.installL1(line, w)
	return w
}

// installL1 makes line present in L1 (in a state that stands for presence
// only) and links its L1 way to w, the line's L2 way.
func (p *Proc) installL1(line uint64, w cache.Way) {
	w1, _, _, _ := p.l1.Insert(line, cache.Shared)
	p.l1.SetWord(w1, uint64(w))
}

// wbTxn is an eviction write-back in flight. Its Done is done, bound once
// per wbTxn, and its re-issue after a bounce is a wbRetryStep, so a
// recycled write-back issues without allocating.
type wbTxn struct {
	smpbus.Txn
	p *Proc
}

// wbRetryStep re-issues a bounced write-back.
type wbRetryStep wbTxn

func (s *wbRetryStep) Fire() { (*wbTxn)(s).reissue() }

// writeBack issues an eviction write-back of line carrying its value v
// (fire and forget; the write-back buffer is not a modelled resource
// beyond the bus itself). A bounced write-back is issued again with the
// same value: the evicted copy is gone, so v is the only record of it.
func (p *Proc) writeBack(line, v uint64) {
	t := p.wbFree.Get()
	if t == nil {
		t = &wbTxn{p: p}
		t.Kind, t.Src = smpbus.WriteBack, p.src
		t.Done = t.done
	}
	t.Line, t.Data = line, v
	t.reissue()
}

// reissue puts the write-back on the bus.
func (t *wbTxn) reissue() {
	p := t.p
	p.tr.Cache(p.eng.Now(), p.node, p.src, t.Line, "writeback", "")
	t.HomeLocal = p.space.Home(t.Line) == p.node
	p.bus.Issue(&t.Txn)
}

// done re-issues a bounced write-back after the bus back-off, and
// recycles a completed one.
func (t *wbTxn) done(o smpbus.Outcome) {
	if o.Status == smpbus.RetryNeeded {
		t.p.eng.After(t.p.cfg.BusRetry, (*wbRetryStep)(t))
		return
	}
	t.p.wbFree.Put(t)
}

// finishMiss records the completed miss's service time.
func (p *Proc) finishMiss() {
	if p.missActive {
		p.tr.SpanFinish(p.missTxn, p.eng.Now())
		p.missLat.Add(p.eng.Now() - p.missStart)
		p.missActive = false
	}
}

// finishAccess resumes the program (or completes a synchronization access)
// after the access latency.
func (p *Proc) finishAccess(extra sim.Time) {
	if cb := p.syncCb; cb != nil {
		p.syncCb = nil
		p.eng.After(extra, cb)
		return
	}
	p.eng.After(extra, (*resumeStep)(p))
}

// Snoop implements the bus snooping agent for this processor's caches. It
// looks the line up in L2 once, reads its state and value before any
// downgrade or invalidation, keeps the value for SnoopData, and changes
// the state through the way it found.
func (p *Proc) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	line := txn.Line
	w, st := p.l2.Lookup(line)
	if st == cache.Invalid {
		return smpbus.SnoopNone
	}
	p.snoopVal = p.l2.Word(w)
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "snoop", st.String())
	switch txn.Kind {
	case smpbus.Read:
		// In-node read: a dirty owner supplies and keeps ownership
		// (Modified -> Owned); clean holders supply shared.
		if st.Dirty() {
			p.l2.SetState(w, cache.Owned)
			return smpbus.SnoopOwned
		}
		if st == cache.Exclusive {
			p.l2.SetState(w, cache.Shared)
		}
		return smpbus.SnoopShared
	case smpbus.Fetch:
		// Controller fetch: dirty data leaves the node (home memory will
		// be updated), so the copy downgrades to clean Shared.
		if st.Dirty() {
			p.l2.SetState(w, cache.Shared)
			return smpbus.SnoopOwned
		}
		if st == cache.Exclusive {
			p.l2.SetState(w, cache.Shared)
		}
		return smpbus.SnoopShared
	case smpbus.ReadEx, smpbus.Upgrade, smpbus.FetchEx, smpbus.Inval:
		p.l2.SetState(w, cache.Invalid)
		p.l1.Invalidate(line)
		if st.Dirty() {
			return smpbus.SnoopOwned
		}
		return smpbus.SnoopShared
	case smpbus.WriteBack:
		// Another agent writes the line back; we keep our (clean) copy and
		// report continued sharing.
		return smpbus.SnoopShared
	default:
		// Deferred-reply (supply) strobes resolve before snooping, so no
		// other kind can reach a processor snooper.
		panic(fmt.Sprintf("cpu: snoop of unexpected kind %v line %#x", txn.Kind, line))
	}
}

// SnoopData implements smpbus.DataSupplier: the shadow value this
// processor puts on the bus when it supplies the line of its most recent
// snoop cache-to-cache.
func (p *Proc) SnoopData() uint64 { return p.snoopVal }
