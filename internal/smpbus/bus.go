// Package smpbus models the node-local SMP bus of the paper's base system:
// a 100 MHz, 16-byte-wide, fully pipelined, split-transaction bus with
// separate address and data paths, snooping caches, and an interleaved
// memory controller that is a separate bus agent from the coherence
// controller. The coherence controller participates as a privileged agent:
// its bus-side directory copy lets it claim (defer) transactions that need
// protocol action, and the direct data path forwards dirty-remote
// write-backs straight to the network interface.
//
// A transaction crosses the bus one step at a time (grant, strobe, memory
// read, data transfer, completion, and a bounce or re-issue on a
// conflict), each step a named pointer type over Txn that the engine fires
// directly, so a re-issued transaction schedules its steps without
// allocating. A transaction has at most one step in flight.
package smpbus

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// Kind identifies a bus transaction type.
type Kind int

const (
	// Read requests a shared copy of a line (processor read miss).
	Read Kind = iota
	// ReadEx requests an exclusive copy with data (processor write miss).
	ReadEx
	// Upgrade requests exclusivity for a line the requester holds Shared
	// (no data transfer needed if nothing intervenes).
	Upgrade
	// WriteBack evicts a dirty line to memory (local home) or through the
	// controller's direct data path to the network (remote home).
	WriteBack
	// Inval is a controller-issued invalidation of local copies (on behalf
	// of a home-node invalidation request).
	Inval
	// Fetch is a controller-issued read of a line for a remote requester;
	// a dirty local copy downgrades to Shared/Owned semantics preserved by
	// the snoop rules.
	Fetch
	// FetchEx is a controller-issued read+invalidate of a line for a
	// remote exclusive requester.
	FetchEx
	// supplyKind is the internal deferred-reply transaction.
	supplyKind

	numKinds
)

var kindNames = [...]string{"Read", "ReadEx", "Upgrade", "WriteBack", "Inval", "Fetch", "FetchEx", "Supply"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// CCSrc is the Src value identifying the coherence controller as issuer.
const CCSrc = -1

// Status reports how a transaction completed.
type Status int

const (
	// OK means the transaction completed (data delivered where relevant).
	OK Status = iota
	// RetryNeeded means a processor's transaction collided with an
	// in-flight transaction on the same line, or was aborted by the
	// controller; the processor should re-arbitrate after the configured
	// back-off (re-evaluating its cache state first). Controller-issued
	// transactions never see it: the bus retries them itself.
	RetryNeeded
	// NoData means a Fetch/FetchEx found neither a cached copy nor local
	// memory backing (a fetch on a remote-home line whose dirty copy was
	// written back in the meantime).
	NoData
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case RetryNeeded:
		return "RetryNeeded"
	case NoData:
		return "NoData"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Outcome is passed to a transaction's Done callback.
type Outcome struct {
	Status Status
	// Shared reports, for Read, that other caches hold the line (install
	// Shared rather than Exclusive); for WriteBack, that sibling caches
	// still share the line (the home must keep this node in the sharing
	// vector); for Fetch, that a dirty copy supplied the data.
	Shared bool
	// Dirty reports, for Fetch/FetchEx, that the data came from a dirty
	// cache copy rather than memory (the home must update memory).
	Dirty bool
	// WithData reports that the completion delivered the full line (an
	// upgrade grant after queued invalidations carries none; a deferred
	// read-exclusive reply does).
	WithData bool
	// Data is the shadow cache-line value delivered with the completion
	// (meaningful when WithData, or for Fetch/FetchEx data collection).
	Data uint64
}

// Txn is one bus transaction. Create with fields set and hand to Issue; the
// bus invokes Done exactly once per issue. Once Done has run, the issuer may
// set the fields again and re-issue the same Txn: a processor re-issues one
// Txn for every attempt of every miss.
//
// A transaction moves through the bus one step at a time: the arbitration
// grant, the strobe, a bounce, a memory read, the data transfer, the
// completion. Each step is a named pointer type over Txn (grantStep,
// strobeStep, ...) whose Fire runs the step on the transaction's bus, so
// scheduling one allocates nothing. A transaction has at most one step in
// flight, and scheduling a second panics. Only a remote write-back's
// capture by the direct data path runs beside another step, because it
// runs at the same cycle as the write-back's completion.
type Txn struct {
	Kind Kind
	Line uint64
	// Src is the index of the issuing processor's snooper, or CCSrc for
	// controller-issued transactions.
	Src int
	// HomeLocal reports whether the line's home node is this node
	// (precomputed by the issuer from the address map).
	HomeLocal bool
	// RequesterOwns marks an Upgrade issued by a processor that holds the
	// line Owned (dirty-shared): the node already has dirty ownership, so
	// the upgrade only invalidates in-node siblings and must not consult
	// the home.
	RequesterOwns bool
	// Data is the shadow cache-line value carried by the transaction
	// (write-back payloads, controller deferred replies).
	Data uint64
	// Attr is the causal-span transaction ID of the miss episode this
	// transaction serves (zero for untracked work: write-backs,
	// invalidations, controller fetches). It rides along at zero timing
	// cost and is only consulted when attribution is on.
	Attr uint64
	// Done receives the outcome. It runs at the completion cycle.
	Done func(Outcome)

	// supplyFor links an internal deferred-reply transaction to the parked
	// transaction it completes.
	supplyFor *Txn
	// snoopData is the shadow value captured from the supplying snooper at
	// strobe time (valid when a snooper answered Owned or Shared).
	snoopData uint64
	// deferredToCC marks a transaction parked with the controller. Parked
	// transactions hold their pending slot for a long time but are not
	// actively transferring data, so controller interventions may proceed
	// past them (the controller's MSHR-fill check covers the actual
	// data-transfer window). Issue clears it and snoopData, so a re-issued
	// transaction starts with no state from its previous issue.
	deferredToCC bool
	// out is the outcome the pending memory read, data transfer or
	// completion will deliver: a transaction has at most one in flight. A
	// deferred reply carries the outcome it delivers to the parked
	// transaction here.
	out Outcome
	// reply is the deferred-reply transaction Supply issues for this one,
	// allocated on the first Supply and reused by later issues.
	reply *Txn
	// bus is the bus the transaction was last issued on, where its steps
	// run, and stepping is set while one of its steps is scheduled.
	bus      *Bus
	stepping bool
}

// arm records that a step of txn is being scheduled. A transaction with a
// step already in flight would run only one of the two, so arming a second
// panics.
func (txn *Txn) arm() {
	if txn.stepping {
		panic(fmt.Sprintf("smpbus: %v of line %#x scheduled a bus step with another in flight", txn.Kind, txn.Line))
	}
	txn.stepping = true
}

// fired records that txn's step is running, so that the step can schedule
// the next, and returns the bus it runs on.
func (txn *Txn) fired() *Bus {
	txn.stepping = false
	return txn.bus
}

// The bus steps, one type each, scheduled as (*strobeStep)(txn) and so on.
type (
	grantStep    Txn // the address-bus grant
	strobeStep   Txn // the address strobe
	wbDataStep   Txn // a write-back's data transfer
	captureStep  Txn // a remote write-back's capture by the direct data path
	memReadyStep Txn // the memory bank's acceptance of a read
	dataStep     Txn // the data-bus grant
	rejectStep   Txn // the end of a bounce
	reissueStep  Txn // a controller transaction's re-issue after a bounce
	finishStep   Txn // the completion
)

func (s *grantStep) Fire()    { t := (*Txn)(s); t.fired().granted(t) }
func (s *strobeStep) Fire()   { t := (*Txn)(s); t.fired().strobe(t) }
func (s *wbDataStep) Fire()   { t := (*Txn)(s); t.fired().writeBackData(t) }
func (s *memReadyStep) Fire() { t := (*Txn)(s); t.fired().memReady(t) }
func (s *dataStep) Fire()     { t := (*Txn)(s); t.fired().dataGranted(t) }
func (s *rejectStep) Fire()   { t := (*Txn)(s); t.fired().rejected(t) }
func (s *reissueStep) Fire()  { t := (*Txn)(s); t.fired().Issue(t) }
func (s *finishStep) Fire()   { t := (*Txn)(s); t.fired().finish(t) }

// Fire hands a remote write-back to the direct data path. It runs at the
// write-back's completion cycle, beside its finishStep, so it leaves
// stepping alone.
func (s *captureStep) Fire() {
	t := (*Txn)(s)
	t.bus.cc.CaptureWriteBack(t.Line, t.out.Shared, t.Data)
}

// SnoopResult is a snooping agent's verdict at address-strobe time.
type SnoopResult int

const (
	// SnoopNone: no copy, no interest.
	SnoopNone SnoopResult = iota
	// SnoopShared: agent holds a clean sharable copy (and will supply a
	// Read via cache-to-cache transfer if no dirty owner exists).
	SnoopShared
	// SnoopOwned: agent holds a dirty copy and will supply it.
	SnoopOwned
	// SnoopDefer: the coherence controller claims the transaction; it will
	// complete it later with a deferred reply.
	SnoopDefer
)

func (r SnoopResult) String() string {
	switch r {
	case SnoopNone:
		return "SnoopNone"
	case SnoopShared:
		return "SnoopShared"
	case SnoopOwned:
		return "SnoopOwned"
	case SnoopDefer:
		return "SnoopDefer"
	default:
		return fmt.Sprintf("SnoopResult(%d)", int(r))
	}
}

// Snooper observes address strobes. Snoop must apply any state change the
// transaction implies for the agent (invalidate on ReadEx/Upgrade/Inval/
// FetchEx, downgrade on Read/Fetch) and return its verdict. The issuing
// agent is not snooped.
type Snooper interface {
	Snoop(txn *Txn) SnoopResult
}

// DataSupplier is optionally implemented by snoopers that track shadow
// line values. When a snooper answers SnoopOwned (or SnoopShared for a
// clean cache-to-cache transfer) the bus reads the supplied value through
// this interface right after the snoop: SnoopData returns the value the
// snooper's copy held when its most recent Snoop read the line's state,
// before that snoop downgraded or invalidated the copy.
type DataSupplier interface {
	SnoopData() uint64
}

// Controller is the coherence controller's bus-facing interface.
type Controller interface {
	Snooper
	// AcceptDeferred transfers completion responsibility for txn to the
	// controller after its Snoop returned SnoopDefer. The controller later
	// calls Bus.Supply (or Bus.Abort) with the same txn.
	AcceptDeferred(txn *Txn)
	// CaptureWriteBack receives a dirty-remote write-back through the
	// direct data path, after the data has crossed the bus. sharedLeft
	// reports whether sibling caches still hold the line; data is the
	// shadow line value being written back.
	CaptureWriteBack(line uint64, sharedLeft bool, data uint64)
}

// Bus is one node's SMP bus plus its memory controller.
type Bus struct {
	eng  *sim.Engine
	cfg  *config.Config
	node int
	tr   *obs.Tracer // nil when tracing and attribution are off

	addr  sim.Resource
	data  sim.Resource
	banks []sim.Resource

	snoopers []Snooper
	cc       Controller

	// pending holds each snooper's in-flight processor transaction and its
	// line, indexed by Src (a zero slot is free). A processor has at most
	// one transaction in flight, and write-backs and controller
	// transactions never register, so a same-line check scans at most
	// ProcsPerNode slots.
	pending []pendingSlot

	// mem is the shadow value image of this node's local memory. Lines
	// never written read as zero.
	mem memaddr.LineTable[uint64]

	counts  [numKinds]uint64
	retries uint64
	stalls  uint64 // injected bus outages (fault layer)
}

// New creates a bus for the given node with the configured number of
// interleaved memory banks and room for ProcsPerNode snoopers. tr may be
// nil.
func New(eng *sim.Engine, cfg *config.Config, node int, tr *obs.Tracer) *Bus {
	b := &Bus{
		eng:      eng,
		cfg:      cfg,
		node:     node,
		tr:       tr,
		addr:     sim.MakeResource(eng),
		data:     sim.MakeResource(eng),
		banks:    make([]sim.Resource, cfg.MemBanks),
		snoopers: make([]Snooper, 0, cfg.ProcsPerNode),
		pending:  make([]pendingSlot, 0, cfg.ProcsPerNode),
		mem:      memaddr.NewLineTable[uint64](cfg),
	}
	for i := range b.banks {
		b.banks[i] = sim.MakeResource(eng)
	}
	return b
}

// AttachSnooper registers a processor cache agent and returns its Src index.
func (b *Bus) AttachSnooper(s Snooper) int {
	b.snoopers = append(b.snoopers, s)
	b.pending = append(b.pending, pendingSlot{})
	return len(b.snoopers) - 1
}

// pendingSlot is one snooper's registered in-flight transaction.
type pendingSlot struct {
	line uint64
	txn  *Txn
}

// pendingFor returns the registered processor transaction on line, or nil.
func (b *Bus) pendingFor(line uint64) *Txn {
	for i := range b.pending {
		if s := &b.pending[i]; s.line == line && s.txn != nil {
			return s.txn
		}
	}
	return nil
}

// AttachController registers the node's coherence controller.
func (b *Bus) AttachController(cc Controller) {
	if b.cc != nil {
		panic("smpbus: controller already attached")
	}
	b.cc = cc
}

// Node returns the node index this bus belongs to.
func (b *Bus) Node() int { return b.node }

// AddrResource and DataResource expose the underlying resources for
// utilization reporting.
func (b *Bus) AddrResource() *sim.Resource { return &b.addr }

// DataResource exposes the data-bus resource.
func (b *Bus) DataResource() *sim.Resource { return &b.data }

// Stall occupies the address and data buses for dur cycles (fault
// injection: a transient bus outage). Outstanding transactions queue
// behind the outage and proceed when it clears.
func (b *Bus) Stall(dur sim.Time) {
	if dur <= 0 {
		return
	}
	b.stalls++
	b.addr.Acquire(dur, nil)
	b.data.Acquire(dur, nil)
}

// Stalls returns the number of injected bus outages.
func (b *Bus) Stalls() uint64 { return b.stalls }

// NumBanks returns the interleaved memory bank count.
func (b *Bus) NumBanks() int { return len(b.banks) }

// BanksBusy returns the summed busy time of all memory banks (for mean
// bank-occupancy sampling).
func (b *Bus) BanksBusy() sim.Time {
	var t sim.Time
	for i := range b.banks {
		t += b.banks[i].Busy()
	}
	return t
}

// Count returns how many transactions of kind k reached the address strobe.
func (b *Bus) Count(k Kind) uint64 { return b.counts[k] }

// Retries returns how many transactions were bounced for same-line
// conflicts.
func (b *Bus) Retries() uint64 { return b.retries }

// MemValue returns the shadow value of a line in this node's local memory
// (zero if never written).
func (b *Bus) MemValue(line uint64) uint64 { return b.mem.Get(line) }

// SetMemValue overwrites the shadow memory image for a line. It exists for
// controllers that absorb remote write-backs into home memory.
func (b *Bus) SetMemValue(line, v uint64) { b.mem.Set(line, v) }

func (b *Bus) bank(line uint64) *sim.Resource {
	return &b.banks[int(line/uint64(b.cfg.LineSize))%len(b.banks)]
}

// Issue submits a transaction. The address bus is arbitrated FIFO; the
// snoop happens BusArb cycles after the grant; completion depends on the
// responder (sibling cache, memory, or a controller deferred reply).
func (b *Bus) Issue(txn *Txn) {
	if txn.Done == nil {
		panic("smpbus: transaction without Done callback")
	}
	if txn.Line&uint64(b.cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("smpbus: unaligned line %#x", txn.Line))
	}
	b.tr.SpanBegin(txn.Attr, obs.StageBusArb, 0, b.eng.Now())
	if txn.Kind == WriteBack && txn.HomeLocal {
		// The line enters the write-back buffer now; any read serialized
		// later is forwarded the buffered value even though the bus/bank
		// occupancy of the actual memory update is still ahead. Without
		// this, a read strobing between the eviction and the write-back's
		// data phase would return stale memory.
		b.mem.Set(txn.Line, txn.Data)
	}
	txn.bus = b
	txn.deferredToCC = false
	txn.snoopData = 0
	txn.arm()
	b.addr.Acquire(b.cfg.AddrStrobe, (*grantStep)(txn))
}

// granted runs at the address-bus grant; the strobe follows BusArb later.
func (b *Bus) granted(txn *Txn) {
	txn.arm()
	b.eng.After(b.cfg.BusArb, (*strobeStep)(txn))
}

// strobe runs at address-strobe time: conflict check, snoop, resolution.
func (b *Bus) strobe(txn *Txn) {
	b.counts[txn.Kind]++
	now := b.eng.Now()
	b.tr.BusStrobe(now, b.node, txn.Kind.String(), txn.Line, txn.Src)
	b.tr.SpanEnd(txn.Attr, obs.StageBusArb, 0, now)

	// Same-line serialization. Processor transactions register in their
	// snooper's pending slot and bounce on conflicts. Controller-issued
	// fetches and invalidations must not strobe in the middle of a LIVE
	// same-line transfer (a supplier may already be invalidated with the
	// requester not yet filled, or a concurrent local miss may be about to
	// install a stale exclusive copy), so they bounce on non-parked
	// conflicts.
	// Transactions parked with the controller (deferredToCC) are waiting
	// on the controller itself and are bypassed — the controller
	// serializes per line above the bus.
	if txn.Src != CCSrc {
		if txn.Kind == WriteBack {
			// Write-backs bounce only on LIVE same-line transfers. A parked
			// transaction may be waiting on the home, and the home may be
			// waiting on this very write-back (the evict-then-re-request
			// pattern) — blocking here would livelock. Write-backs do not
			// register a pending slot: they complete unconditionally and
			// carry no fill to protect.
			if prev := b.pendingFor(txn.Line); prev != nil && !prev.deferredToCC {
				b.bounce(txn, now)
				return
			}
		} else {
			if prev := b.pendingFor(txn.Line); prev != nil && prev != txn {
				b.bounce(txn, now)
				return
			}
			b.pending[txn.Src] = pendingSlot{line: txn.Line, txn: txn}
		}
	} else {
		switch txn.Kind {
		case Fetch, FetchEx, Inval:
			if prev := b.pendingFor(txn.Line); prev != nil && !prev.deferredToCC {
				b.bounce(txn, now)
				return
			}
		case WriteBack, supplyKind:
			// Controller memory writes and deferred replies never bounce:
			// they carry no fill to protect and parked work depends on them.
		case Read, ReadEx, Upgrade:
			panic(fmt.Sprintf("smpbus: controller-issued processor kind %v line %#x", txn.Kind, txn.Line))
		default:
			panic(fmt.Sprintf("smpbus: controller-issued unknown kind %v line %#x", txn.Kind, txn.Line))
		}
	}
	if txn.Kind == supplyKind {
		b.resolveSupply(txn, now)
		return
	}

	// Snoop everyone but the issuer. The supplying snooper's shadow line
	// value is captured so data-bearing resolutions can deliver it (the
	// dirty owner's value wins over a clean sharer's).
	verdict := SnoopNone
	sharedSeen := false
	supplier := -1
	for i, s := range b.snoopers {
		if i == txn.Src {
			continue
		}
		switch s.Snoop(txn) {
		case SnoopShared:
			sharedSeen = true
			if supplier < 0 {
				supplier = i
			}
		case SnoopOwned:
			if verdict == SnoopOwned {
				panic(fmt.Sprintf("smpbus: two dirty owners for line %#x", txn.Line))
			}
			verdict = SnoopOwned
			supplier = i
		case SnoopNone, SnoopDefer:
		}
	}
	if supplier >= 0 {
		if ds, ok := b.snoopers[supplier].(DataSupplier); ok {
			txn.snoopData = ds.SnoopData()
		}
	}
	deferred := false
	ccShared := false
	if b.cc != nil && txn.Src != CCSrc {
		switch v := b.cc.Snoop(txn); v {
		case SnoopDefer:
			deferred = true
		case SnoopShared:
			// The bus-side directory reports remote sharers: memory may
			// still respond, but the line must install Shared.
			ccShared = true
		case SnoopNone:
		case SnoopOwned:
			panic(fmt.Sprintf("smpbus: controller snoop returned owner verdict for line %#x", txn.Line))
		default:
			panic(fmt.Sprintf("smpbus: controller snoop returned unknown verdict %v", v))
		}
	}

	switch txn.Kind {
	case Read:
		b.resolveRead(txn, now, verdict == SnoopOwned, sharedSeen, deferred, ccShared)
	case ReadEx:
		b.resolveReadEx(txn, now, verdict == SnoopOwned, deferred)
	case Upgrade:
		switch {
		case txn.RequesterOwns:
			// The requester holds the line Owned: node-level dirty
			// ownership is already here; invalidating the snooped siblings
			// suffices.
			b.complete(txn, now+2, Outcome{Status: OK})
		case verdict == SnoopOwned:
			// A sibling held the line dirty (Owned): in-node ownership
			// transfer, exactly like ReadEx — the home must not be asked,
			// since node-level ownership does not change.
			b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Dirty: true, WithData: true, Data: txn.snoopData})
		case deferred:
			txn.deferredToCC = true
			b.cc.AcceptDeferred(txn)
		default:
			// Exclusivity granted on the spot: siblings invalidated at
			// snoop.
			b.complete(txn, now+2, Outcome{Status: OK})
		}
	case WriteBack:
		b.resolveWriteBack(txn, now, sharedSeen)
	case Inval:
		b.complete(txn, now+2, Outcome{Status: OK})
	case Fetch, FetchEx:
		b.resolveFetch(txn, now, verdict == SnoopOwned, sharedSeen)
	default:
		panic(fmt.Sprintf("smpbus: unhandled kind %v", txn.Kind))
	}
}

func (b *Bus) resolveRead(txn *Txn, now sim.Time, owned, sharedSeen, deferred, ccShared bool) {
	switch {
	case owned:
		// Cache-to-cache transfer from the dirty owner. Ownership stays in
		// the node (the supplier moved to Owned in its snoop handler), so
		// no write-back to home is needed here.
		b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Shared: true, Dirty: true, Data: txn.snoopData})
	case sharedSeen:
		// Clean cache-to-cache transfer from a sharer.
		b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Shared: true, Data: txn.snoopData})
	case deferred:
		txn.deferredToCC = true
		b.cc.AcceptDeferred(txn)
	case txn.HomeLocal:
		b.memoryRead(txn, now, Outcome{Status: OK, Shared: ccShared})
	default:
		panic(fmt.Sprintf("smpbus: read of remote line %#x with no responder (controller missing?)", txn.Line))
	}
}

func (b *Bus) resolveReadEx(txn *Txn, now sim.Time, owned, deferred bool) {
	switch {
	case owned:
		// Dirty copy moves cache-to-cache; the snoop invalidated it at the
		// supplier. Home directory state is unchanged (the node as a whole
		// still owns the line for remote homes; local homes track only
		// remote sharers, of which there are none when a local M exists).
		b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Dirty: true, Data: txn.snoopData})
	case deferred:
		txn.deferredToCC = true
		b.cc.AcceptDeferred(txn)
	case txn.HomeLocal:
		b.memoryRead(txn, now, Outcome{Status: OK})
	default:
		panic(fmt.Sprintf("smpbus: readex of remote line %#x with no responder", txn.Line))
	}
}

func (b *Bus) resolveWriteBack(txn *Txn, now sim.Time, sharedLeft bool) {
	// Data crosses the bus starting two cycles after the strobe.
	txn.out = Outcome{Status: OK, Shared: sharedLeft}
	txn.arm()
	b.data.AcquireAt(now+2, b.cfg.BusDataTime(), (*wbDataStep)(txn))
}

// writeBackData runs when a write-back's line starts crossing the data bus.
func (b *Bus) writeBackData(txn *Txn) {
	ds := b.eng.Now()
	end := ds + b.cfg.BusDataTime()
	if txn.HomeLocal {
		// Memory bank absorbs the line (its shadow value was already
		// forwarded from the write-back buffer at issue time).
		b.bank(txn.Line).AcquireAt(ds, b.cfg.BankBusy, nil)
		b.complete(txn, end, txn.out)
		return
	}
	// Direct data path: the controller's bus interface forwards the line
	// to the network interface without dispatching a handler. The capture
	// is scheduled before the completion, so it reads the transaction
	// before its issuer can reuse it.
	if b.cc == nil {
		panic("smpbus: remote write-back with no controller")
	}
	b.eng.At(end, (*captureStep)(txn))
	b.complete(txn, end, txn.out)
}

func (b *Bus) resolveFetch(txn *Txn, now sim.Time, owned, sharedSeen bool) {
	switch {
	case owned:
		if txn.HomeLocal {
			// The dirty local copy downgrades to clean Shared as its data
			// leaves for the controller; home memory absorbs the line.
			b.bank(txn.Line).AcquireAt(now+b.cfg.CacheToCache, b.cfg.BankBusy, nil)
			b.mem.Set(txn.Line, txn.snoopData)
		}
		b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Shared: sharedSeen, Dirty: true, Data: txn.snoopData})
	case sharedSeen && txn.Kind == Fetch:
		b.transferData(txn, now+b.cfg.CacheToCache, Outcome{Status: OK, Shared: true, Data: txn.snoopData})
	case txn.HomeLocal:
		b.memoryRead(txn, now, Outcome{Status: OK, Shared: sharedSeen})
	case sharedSeen: // FetchEx on a remote-home line with only clean sharers
		// The sharers were invalidated by the snoop; there is no data to
		// collect locally and none is needed (the home supplies it).
		b.complete(txn, now+2, Outcome{Status: OK, Shared: true})
	default:
		b.complete(txn, now+2, Outcome{Status: NoData})
	}
}

// memoryRead models a line read from the interleaved memory: the bank is
// busy for BankBusy cycles; data reaches the bus MemAccess cycles after the
// bank accepts the access; the requester restarts on the critical quad
// word.
func (b *Bus) memoryRead(txn *Txn, now sim.Time, out Outcome) {
	out.Data = b.mem.Get(txn.Line)
	txn.out = out
	txn.arm()
	b.bank(txn.Line).AcquireAt(now, b.cfg.BankBusy, (*memReadyStep)(txn))
}

// memReady runs when the bank accepts the read: the data is ready for the
// bus MemAccess cycles later.
func (b *Bus) memReady(txn *Txn) {
	ready := b.eng.Now() + b.cfg.MemAccess
	b.tr.SpanEnd(txn.Attr, obs.StageMem, 0, ready)
	b.transferData(txn, ready, txn.out)
}

// transferData moves a line over the data bus beginning no earlier than
// ready, completing the transaction at the critical-quad-word arrival.
func (b *Bus) transferData(txn *Txn, ready sim.Time, out Outcome) {
	txn.out = out
	txn.arm()
	b.data.AcquireAt(ready, b.cfg.BusDataTime(), (*dataStep)(txn))
}

// dataGranted runs when the line starts crossing the data bus.
func (b *Bus) dataGranted(txn *Txn) {
	b.complete(txn, b.eng.Now()+b.cfg.CriticalQuad, txn.out)
}

// bounce rejects a strobed transaction two cycles later (the
// conflict-resolution window), attributing the window to the bus.
func (b *Bus) bounce(txn *Txn, now sim.Time) {
	b.retries++
	b.tr.SpanEnd(txn.Attr, obs.StageBus, 0, now+2)
	txn.arm()
	b.eng.After(2, (*rejectStep)(txn))
}

// rejected ends a bounce. A processor sees RetryNeeded and re-evaluates
// its cache state; a controller-issued fetch or invalidation has no state
// to re-evaluate, so the bus re-issues it itself after the BusRetry
// back-off.
func (b *Bus) rejected(txn *Txn) {
	if txn.Src == CCSrc {
		txn.arm()
		b.eng.After(b.cfg.BusRetry, (*reissueStep)(txn))
		return
	}
	txn.Done(Outcome{Status: RetryNeeded})
}

// complete fires Done with out at time t, freeing the pending slot
// first.
func (b *Bus) complete(txn *Txn, t sim.Time, out Outcome) {
	b.tr.SpanEnd(txn.Attr, obs.StageBus, 0, t)
	txn.out = out
	txn.arm()
	b.eng.At(t, (*finishStep)(txn))
}

// finish is a scheduled completion. Done may re-issue txn, so the pending
// slot is freed first.
func (b *Bus) finish(txn *Txn) {
	if txn.Src != CCSrc && b.pending[txn.Src].txn == txn {
		b.pending[txn.Src] = pendingSlot{}
	}
	txn.Done(txn.out)
}

// Supply completes a previously deferred transaction. withData selects a
// full data transfer (read/readex responses) versus a bare grant (upgrade
// acknowledgements); shared tells a Read requester to install the line
// Shared; data is the shadow line value delivered with a data-bearing
// reply.
func (b *Bus) Supply(parked *Txn, withData, shared bool, data uint64) {
	s := parked.reply
	if s == nil {
		s = &Txn{Kind: supplyKind, Src: CCSrc, Done: replyDone, supplyFor: parked}
		parked.reply = s
	}
	s.Line, s.HomeLocal, s.Attr = parked.Line, parked.HomeLocal, parked.Attr
	s.out = Outcome{Status: OK, Shared: shared, WithData: withData, Data: data}
	b.Issue(s)
}

// replyDone is a deferred reply's Done. It never runs: the reply
// completes the parked transaction, not itself.
func replyDone(Outcome) {}

func (b *Bus) resolveSupply(s *Txn, now sim.Time) {
	if s.out.WithData {
		b.transferData(s.supplyFor, now+2, s.out)
		return
	}
	b.complete(s.supplyFor, now+2, s.out)
}

// Abort bounces a deferred transaction back to its issuer with RetryNeeded
// (used when the controller decides the request must be re-evaluated, e.g.
// an upgrade whose line was invalidated while queued).
func (b *Bus) Abort(parked *Txn) {
	b.complete(parked, b.eng.Now()+2, Outcome{Status: RetryNeeded})
}
