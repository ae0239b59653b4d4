// Package cpu implements the execution-driven compute-processor model.
// Each simulated processor runs its workload program as a coroutine of the
// engine (prog.Coroutine); the program's shared-memory loads and stores are
// issued to the timing model (L1 -> L2 -> SMP bus -> coherence controller)
// and the program stays parked until the simulated access completes,
// exactly like the Augmint task-switch-per-reference model the paper used.
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

type opKind int

const (
	opRead opKind = iota
	opWrite
	opBarrier
	opLock
	opUnlock
	opDone
)

type op struct {
	kind opKind
	addr uint64
	comp int64 // compute cycles/instructions preceding this operation
	id   int   // lock identifier
}

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

	l1 *cache.Cache
	l2 *cache.Cache

	// vals shadows the value of every line this processor has ever held or
	// written (one uint64 per line). Entries are deliberately kept after
	// invalidation: the bus reads a supplier's value at snoop time, after
	// the snoop itself may have invalidated the copy.
	vals   map[uint64]uint64
	valSeq uint64
	// lastRead and lastWrite record the shadow value observed by the most
	// recent completed load and produced by the most recent completed
	// store (read by the protocol checker's replays between operations).
	lastRead  uint64
	lastWrite uint64

	// co is the program coroutine (nil until Run). curOp is the one
	// operation in flight while its compute cycles elapse: the program stays
	// parked until that operation completes, so there is never a second.
	co    *prog.Coroutine[op]
	curOp op
	// resumeFn and execFn are resumeProgram and the curOp executor, bound
	// once so that scheduling them on every reference allocates nothing.
	resumeFn func()
	execFn   func()

	// syncCb, when set, receives the completion of an access issued by the
	// synchronization layer instead of resuming the program.
	syncCb func()

	// miss is the bus transaction of the in-flight miss or upgrade, issued
	// again for every attempt: an in-order processor has at most one in
	// flight. Its Line and Kind name the access between attempts. issueFn,
	// retryFn and missDoneFn are issueMiss, retryAccess and missDone for
	// it, bound once so that neither an issue nor a retry allocates.
	miss       smpbus.Txn
	issueFn    func()
	retryFn    func()
	missDoneFn func(smpbus.Outcome)

	pendingComp int64 // program-side accumulated compute cycles

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
		vals:  make(map[uint64]uint64),
	}
	p.resumeFn = p.resumeProgram
	p.execFn = func() { p.execOp(p.curOp) }
	p.issueFn = func() { p.issueMiss(p.miss.Line, p.miss.Kind) }
	p.retryFn = func() { p.retryAccess(p.miss.Line, p.miss.Kind) }
	p.missDoneFn = func(o smpbus.Outcome) {
		p.missDone(p.miss.Line, p.miss.Kind, p.miss.RequesterOwns, o)
	}
	p.src = bus.AttachSnooper(p)
	p.miss.Src = p.src
	return p
}

// ID returns the processor's global index.
func (p *Proc) ID() int { return p.id }

// Node returns the processor's node index.
func (p *Proc) Node() int { return p.node }

// Instructions returns the instruction count (compute cycles plus one per
// memory reference, the paper's 1-IPC in-order assumption).
func (p *Proc) Instructions() uint64 { return p.instructions }

// Finished reports whether the program has completed, and when.
func (p *Proc) Finished() (bool, sim.Time) { return p.finished, p.finishedAt }

// ForEachL2Line visits every valid line in the processor's L2 cache (for
// end-of-run coherence invariant checks).
func (p *Proc) ForEachL2Line(fn func(line uint64, st cache.State)) {
	p.l2.Lines(func(line uint64, st cache.State) bool {
		fn(line, st)
		return true
	})
}

// ForEachL1Line visits every valid line in the processor's L1 cache (the
// model checker folds L1 presence into its abstract state hash).
func (p *Proc) ForEachL1Line(fn func(line uint64, st cache.State)) {
	p.l1.Lines(func(line uint64, st cache.State) bool {
		fn(line, st)
		return true
	})
}

// L2State returns the L2 state of a line without touching LRU.
func (p *Proc) L2State(line uint64) cache.State { return p.l2.Lookup(line) }

// LineValue returns the processor's shadow value for a line (zero if the
// processor never held it).
func (p *Proc) LineValue(line uint64) uint64 { return p.vals[line] }

// LastReadValue returns the shadow value observed by the most recently
// completed load.
func (p *Proc) LastReadValue() uint64 { return p.lastRead }

// LastWriteValue returns the shadow value produced by the most recently
// completed store.
func (p *Proc) LastWriteValue() uint64 { return p.lastWrite }

// writeValue mints a globally unique shadow value for a completed store to
// line: the processor index in the high word and a per-processor sequence
// number in the low word (no shared counter, so replays stay deterministic).
func (p *Proc) writeValue(line uint64) {
	p.valSeq++
	v := uint64(p.id+1)<<32 | p.valSeq
	p.vals[line] = v
	p.lastWrite = v
}

// readValue records the value a completed load observed from the local copy.
func (p *Proc) readValue(line uint64) { p.lastRead = p.vals[line] }

// MissLatencies returns the processor's miss service-time distribution.
func (p *Proc) MissLatencies() *stats.Histogram { return &p.missLat }

// Counters returns the processor's reference statistics.
func (p *Proc) Counters() map[string]uint64 {
	return map[string]uint64{
		"reads": p.reads, "writes": p.writes,
		"l1Hits": p.l1Hits, "l2Hits": p.l2Hits, "misses": p.misses,
		"upgrades": p.upgrades, "busRetries": p.retries,
	}
}

// Run prepares the program coroutine and schedules its first time slice.
// The program must use only the provided Env for shared-memory access.
func (p *Proc) Run(program func(prog.Env)) {
	env := &Env{p: p}
	p.co = prog.Start(func() { program(env) }, op{kind: opDone})
	p.eng.At(p.eng.Now(), p.resumeFn)
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

// SyncAccess models a load/store issued by the synchronization layer on
// behalf of the parked program (a lock-line acquisition or release). done
// runs at completion instead of resuming the program.
func (p *Proc) SyncAccess(addr uint64, write bool, done func()) {
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

// resumeProgram switches to the program coroutine, receives its next
// operation, and models it. The engine is suspended while the program
// computes, which serializes all program execution deterministically.
func (p *Proc) resumeProgram() {
	p.handleOp(p.co.Next())
}

func (p *Proc) handleOp(o op) {
	if o.comp > 0 {
		p.instructions += uint64(o.comp)
		p.curOp = o
		p.eng.After(sim.Time(o.comp), p.execFn)
		return
	}
	p.execOp(o)
}

func (p *Proc) execOp(o op) {
	switch o.kind {
	case opRead, opWrite:
		p.instructions++
		if o.kind == opRead {
			p.reads++
		} else {
			p.writes++
		}
		p.access(o.addr, o.kind == opWrite)
	case opBarrier:
		p.sync.Barrier(p)
	case opLock:
		p.sync.Lock(p, o.id)
	case opUnlock:
		p.sync.Unlock(p, o.id)
	case opDone:
		p.finished = true
		p.finishedAt = p.eng.Now()
		p.co.Stop()
	default:
		panic(fmt.Sprintf("cpu: unknown op %d", o.kind))
	}
}

// access models one load or store.
func (p *Proc) access(addr uint64, write bool) {
	line := p.space.Line(addr)
	if p.space.Home(line) < 0 {
		// First touch under first-touch placement assigns the page here.
		// The placement table is shared by every node, so on a sharded
		// engine the assignment runs under a cluster fence and the access
		// re-enters once the home is set (nothing above this point has
		// side effects, so re-entry is safe). On a serial engine the fence
		// body runs inline and this is the plain assign-and-continue path.
		p.eng.Fence(func() {
			p.space.HomeOrAssign(line, p.node)
			p.access(addr, write)
		})
		return
	}

	// L1: presence filter. Writes additionally require L2 exclusivity.
	if p.l1.Touch(line) != cache.Invalid {
		st := p.l2.Touch(line)
		if st == cache.Invalid {
			// Inclusion was broken by a snoop between references; fall
			// through to the L2/bus path after back-invalidating L1.
			p.l1.Invalidate(line)
		} else if !write {
			p.l1Hits++
			p.readValue(line)
			p.finishAccess(p.cfg.L1HitTime)
			return
		} else if st == cache.Modified || st == cache.Exclusive {
			p.l1Hits++
			p.l2.SetState(line, cache.Modified)
			p.writeValue(line)
			p.finishAccess(p.cfg.L1HitTime)
			return
		}
		// Write to a Shared/Owned line: exclusivity needed below.
	}

	st := p.l2.Touch(line)
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
		p.eng.After(p.cfg.L2MissDetect, p.issueFn)
	case !write:
		p.l2Hits++
		p.readValue(line)
		p.installL1(line)
		p.finishAccess(p.cfg.L2HitTime)
	case st == cache.Modified || st == cache.Exclusive:
		p.l2Hits++
		p.l2.SetState(line, cache.Modified)
		p.writeValue(line)
		p.installL1(line)
		p.finishAccess(p.cfg.L2HitTime)
	default: // write to Shared or Owned: upgrade
		p.upgrades++
		p.miss.Line, p.miss.Kind = line, smpbus.Upgrade
		p.eng.After(p.cfg.L2MissDetect, p.issueFn)
	}
}

// requesterOwns reports whether an Upgrade should carry the
// dirty-ownership mark (the line is Owned in our L2 at issue time).
func (p *Proc) requesterOwns(line uint64, kind smpbus.Kind) bool {
	return kind == smpbus.Upgrade && p.l2.Lookup(line) == cache.Owned
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
		p.eng.After(p.busBackoff(), p.retryFn)
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
		p.installL2(line, st)
		p.vals[line] = o.Data
		p.readValue(line)
	case smpbus.ReadEx:
		p.installL2(line, cache.Modified)
		p.vals[line] = o.Data
		p.writeValue(line)
	case smpbus.Upgrade:
		if o.WithData {
			// The reply carried the full line (deferred upgrades convert
			// to read-exclusive at the home, and in-node ownership
			// transfers move the line cache-to-cache).
			p.installL2(line, cache.Modified)
			p.vals[line] = o.Data
			p.writeValue(line)
			break
		}
		if owned {
			// A dirty-owner grant is valid only if we still hold the line
			// Owned: a home-initiated intervention may have downgraded or
			// invalidated it while the upgrade was in flight, in which
			// case global ownership moved and we must restart.
			if p.l2.Lookup(line) != cache.Owned {
				p.eng.After(p.cfg.BusRetry, p.retryFn) // retries the Upgrade
				return
			}
			p.l2.SetState(line, cache.Modified)
			p.writeValue(line)
			p.installL1(line)
			break
		}
		// A bare home grant may arrive after an intervening invalidation
		// removed our copy; in that case restart as a full read-exclusive.
		if p.l2.Lookup(line) == cache.Invalid {
			p.issueMiss(line, smpbus.ReadEx)
			return
		}
		p.l2.SetState(line, cache.Modified)
		p.writeValue(line)
		p.installL1(line)
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
	st := p.l2.Touch(line)
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

// installL2 inserts a filled line, writing back a dirty victim and keeping
// L1 inclusive.
func (p *Proc) installL2(line uint64, st cache.State) {
	victim, vstate := p.l2.Insert(line, st)
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "install", st.String())
	if vstate != cache.Invalid {
		p.tr.Cache(p.eng.Now(), p.node, p.src, victim, "evict", vstate.String())
		p.l1.Invalidate(victim)
		if vstate.Dirty() {
			p.writeBack(victim)
		}
	}
	p.installL1(line)
}

func (p *Proc) installL1(line uint64) {
	p.l1.Insert(line, cache.Shared) // L1 tracks presence only
}

// writeBack issues an eviction write-back (fire and forget; the write-back
// buffer is not a modelled resource beyond the bus itself).
func (p *Proc) writeBack(line uint64) {
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "writeback", "")
	txn := &smpbus.Txn{
		Kind:      smpbus.WriteBack,
		Line:      line,
		Src:       p.src,
		HomeLocal: p.space.Home(line) == p.node,
		Data:      p.vals[line],
		Done: func(o smpbus.Outcome) {
			if o.Status == smpbus.RetryNeeded {
				p.eng.After(p.cfg.BusRetry, func() { p.writeBack(line) })
			}
		},
	}
	p.bus.Issue(txn)
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
	p.eng.After(extra, p.resumeFn)
}

// Snoop implements the bus snooping agent for this processor's caches.
func (p *Proc) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	line := txn.Line
	st := p.l2.Lookup(line)
	if st == cache.Invalid {
		return smpbus.SnoopNone
	}
	p.tr.Cache(p.eng.Now(), p.node, p.src, line, "snoop", st.String())
	switch txn.Kind {
	case smpbus.Read:
		// In-node read: a dirty owner supplies and keeps ownership
		// (Modified -> Owned); clean holders supply shared.
		if st.Dirty() {
			p.l2.SetState(line, cache.Owned)
			return smpbus.SnoopOwned
		}
		if st == cache.Exclusive {
			p.l2.SetState(line, cache.Shared)
		}
		return smpbus.SnoopShared
	case smpbus.Fetch:
		// Controller fetch: dirty data leaves the node (home memory will
		// be updated), so the copy downgrades to clean Shared.
		if st.Dirty() {
			p.l2.SetState(line, cache.Shared)
			return smpbus.SnoopOwned
		}
		if st == cache.Exclusive {
			p.l2.SetState(line, cache.Shared)
		}
		return smpbus.SnoopShared
	case smpbus.ReadEx, smpbus.Upgrade, smpbus.FetchEx, smpbus.Inval:
		p.l2.Invalidate(line)
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

// LineData implements smpbus.DataSupplier: the shadow value this processor
// would put on the bus when supplying the line cache-to-cache.
func (p *Proc) LineData(line uint64) uint64 { return p.vals[line] }

// ---- program-facing API -----------------------------------------------------

// Env is the shared-memory interface handed to workload programs (the
// detailed implementation of prog.Env). All methods park the program
// coroutine until the simulated operation completes. Env is owned by a
// single program.
type Env struct {
	p *Proc
}

var _ prog.Env = (*Env)(nil)

// ID returns the global processor index running this program.
func (e *Env) ID() int { return e.p.id }

// Node returns the processor's node.
func (e *Env) Node() int { return e.p.node }

// Compute charges n instruction cycles of local computation. The cost is
// attached to the next memory or synchronization operation.
func (e *Env) Compute(n int) {
	if n > 0 {
		e.p.pendingComp += int64(n)
	}
}

func (e *Env) issue(o op) {
	o.comp = e.p.pendingComp
	e.p.pendingComp = 0
	e.p.co.Yield(o)
}

// Read performs a shared-memory load from addr.
func (e *Env) Read(addr uint64) { e.issue(op{kind: opRead, addr: addr}) }

// Write performs a shared-memory store to addr.
func (e *Env) Write(addr uint64) { e.issue(op{kind: opWrite, addr: addr}) }

// ReadRange loads n consecutive 8-byte words starting at addr, one
// reference per word (the caches collapse same-line references).
func (e *Env) ReadRange(addr uint64, n int) {
	for i := 0; i < n; i++ {
		e.Read(addr + uint64(i*8))
	}
}

// WriteRange stores n consecutive 8-byte words starting at addr.
func (e *Env) WriteRange(addr uint64, n int) {
	for i := 0; i < n; i++ {
		e.Write(addr + uint64(i*8))
	}
}

// Barrier joins the global barrier; the program resumes when every
// processor has arrived.
func (e *Env) Barrier() { e.issue(op{kind: opBarrier}) }

// Lock acquires the numbered lock, modelling the coherence traffic of a
// read-exclusive acquisition of the lock's cache line.
func (e *Env) Lock(id int) { e.issue(op{kind: opLock, id: id}) }

// Unlock releases the numbered lock.
func (e *Env) Unlock(id int) { e.issue(op{kind: opUnlock, id: id}) }
