// Package core implements the paper's subject: the coherence controller of
// an SMP-based CC-NUMA node. The controller bridges the node's snooping SMP
// bus and the interconnection network, synthesizing global cache coherence
// with a full-bit-map directory protocol. It contains:
//
//   - three input queues (bus-side requests, network-side requests,
//     network-side responses) with the paper's dispatch arbitration policy:
//     responses first, then network requests, then bus requests, except
//     that a bus request that has waited through LivelockLimit consecutive
//     network-request dispatches proceeds first;
//   - one or two protocol engines (HWC finite-state machines or PPC
//     protocol processors) whose handler occupancies come from the
//     sub-operation sequences in the protocol package and the Table 2 cost
//     model;
//   - under the two-engine split, an LPE serving local-home addresses
//     (the only engine that touches the directory) and an RPE serving
//     remote-home addresses, as in S3.mp;
//   - the direct bus-interface/network-interface data path that forwards
//     dirty-remote write-backs to the home node without handler dispatch.
package core

import (
	"fmt"
	"slices"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/directory"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
)

// work is one queued protocol request: either a deferred bus transaction or
// a network message.
type work struct {
	arrival sim.Time
	txn     *smpbus.Txn
	msg     *protocol.Msg
	// parked marks work waiting on a home op's or an MSHR's waiter list;
	// dispatch recycles any other work once its handler returns.
	parked bool
}

// label names the queued request for tracing (a constant-table string).
func (w *work) label() string {
	if w.txn != nil {
		return w.txn.Kind.String()
	}
	return w.msg.Type.String()
}

// queue returns the input queue w waits in (obs.QResp, obs.QReq or
// obs.QBus).
func (w *work) queue() int {
	switch {
	case w.txn != nil:
		return obs.QBus
	case w.msg.IsResponse():
		return obs.QResp
	default:
		return obs.QReq
	}
}

// span returns the causal-span identity of the transaction w serves:
// deferred bus transactions carry the requester's episode ID with no
// epoch; network messages echo both the ID and the request epoch.
func (w *work) span() (uint64, uint32) {
	if w.txn != nil {
		return w.txn.Attr, 0
	}
	return w.msg.Txn, w.msg.Epoch
}

// homeOp is a transient home-node operation on a local line.
type homeOp struct {
	line      uint64
	excl      bool
	requester int         // remote requester node, or -1 when local
	parked    *smpbus.Txn // parked local bus transaction (requester == -1)
	upgrade   bool        // parked transaction is an upgrade (no data)

	// epoch echoes the requesting episode's tag into the grant (zero for
	// local requesters and without Config.Robust). txn is the
	// remote requester's causal-span ID, echoed the same way.
	epoch uint32
	txn   uint64

	acksLeft     int
	needData     bool
	haveData     bool
	intervention bool // fetch forwarded to a remote owner, response pending
	waitWB       bool // intervention missed; waiting for the eviction WB
	wbArrived    bool
	finishing    bool // response issued; retirement pending on the bus reply
	// data is the shadow line value collected for the response (from the
	// home fetch, the owner's data message, or an in-flight write-back).
	data uint64
	// finalDir is written to the directory when the op completes.
	finalDir directory.Entry

	recycled
}

// span resolves the causal-span identity of the op's requester: local
// requesters are identified by their parked bus transaction, remote ones
// by the ID echoed from the request message.
func (op *homeOp) span() (uint64, uint32) {
	if op.parked != nil {
		return op.parked.Attr, 0
	}
	return op.txn, op.epoch
}

func (op *homeOp) ready() bool {
	return !op.intervention && op.acksLeft == 0 &&
		(!op.needData || op.haveData) && (!op.waitWB || op.wbArrived)
}

// mshrEntry tracks one outstanding request from this node to a remote home.
type mshrEntry struct {
	line   uint64
	excl   bool
	parked *smpbus.Txn
	// responseArrived is set the moment a data response for this miss
	// reaches the node (it may still be waiting in an input queue). Under
	// the round-robin engine split an intervention for the same line can
	// otherwise be dispatched by the other engine ahead of the response.
	responseArrived bool
	filling         bool // response dispatched, bus supply in flight
	// data is the shadow line value delivered by the data response, and
	// shared whether the fill installs the line Shared.
	data   uint64
	shared bool

	// Robustness state (zero and unused unless Config.Robust).
	// issuedAt is when the request was first sent; attempts counts NACKs
	// and timeouts consumed against config.RobustRetryBudget; epoch tags
	// the episode's messages so stale grants from a closed episode are
	// dropped.
	issuedAt sim.Time
	attempts int
	epoch    uint32
	// timeouts counts the entry's armed timeouts that have not fired,
	// across reuse: every timeout waits the same delay, so they fire in
	// the order they were armed and only the last one is live. timeoutFn
	// is the entry's timer, bound on its first armTimeout.
	timeouts  int
	timeoutFn sim.Func

	recycled
}

// Controller is one node's coherence controller.
type Controller struct {
	eng   *sim.Engine
	cfg   *config.Config
	node  int
	bus   *smpbus.Bus
	net   *interconnect.Network
	dir   *directory.Directory
	space *memaddr.Space
	st    *stats.ControllerStats
	tr    *obs.Tracer // nil when tracing and attribution are off

	// kind is this node's protocol-engine implementation; on heterogeneous
	// machines (Config.NodeArchs) it differs per controller, so occupancy
	// lookups must go through it rather than cfg.Engine.
	kind    config.EngineKind
	engines []*engine
	rr      int

	homeOps map[uint64]*homeOp
	mshr    map[uint64]*mshrEntry

	// Free lists of the controller's protocol objects (pool.go). msgs is
	// shared with the controllers on the same engine.
	msgs  *MsgPool
	works sim.FreeList[work]
	ops   sim.FreeList[homeOp]
	mshrs sim.FreeList[mshrEntry]
	conts sim.FreeList[cont]
	txns  sim.FreeList[ccTxn]

	handlerCounts [protocol.NumHandlers]uint64
	handlerBusy   [protocol.NumHandlers]sim.Time

	// epochCtr mints request-episode tags for outgoing ReadReq/ReadExReq
	// (see protocol.Msg.Epoch).
	epochCtr uint32

	// hook observes dispatches and sends for the model conformance harness
	// (nil in normal runs). curTrigger/curHandler identify the dispatch in
	// progress so synchronous sends can be attributed to their rule;
	// inDispatch distinguishes them from closure-deferred sends.
	hook       ConformanceHook
	inDispatch bool
	curTrigger string
	curHandler protocol.Handler

	// forceNack counts pending one-shot forced NI bounces (ForceNackNext).
	forceNack int
}

// engine is one protocol engine (FSM or protocol processor) with its input
// queues, indexed by obs.QResp, obs.QReq and obs.QBus: the paper's
// dispatch-priority order.
type engine struct {
	cc        *Controller
	idx       int
	q         [3][]*work
	busy      bool
	netStreak int // consecutive network-request dispatches while bus waits
}

// idleStep ends an engine's occupancy: dispatch and StallEngine schedule
// it as (*idleStep)(e), which allocates nothing.
type idleStep engine

func (s *idleStep) Fire() { (*engine)(s).idle() }

// New creates a controller, attaching it to the node's bus and to the
// network. msgs is the message pool of the controllers on eng. st receives
// the controller's measurements (may be a throwaway for unit tests); tr may
// be nil to disable tracing.
func New(eng *sim.Engine, cfg *config.Config, node int, bus *smpbus.Bus,
	net *interconnect.Network, msgs *MsgPool, dir *directory.Directory,
	space *memaddr.Space, st *stats.ControllerStats, tr *obs.Tracer) *Controller {

	cc := &Controller{
		eng:     eng,
		cfg:     cfg,
		node:    node,
		bus:     bus,
		net:     net,
		dir:     dir,
		space:   space,
		st:      st,
		tr:      tr,
		kind:    cfg.NodeEngineKind(node),
		homeOps: make(map[uint64]*homeOp),
		mshr:    make(map[uint64]*mshrEntry),
		msgs:    msgs,
	}
	for i := 0; i < cfg.NodeEngineCount(node); i++ {
		cc.engines = append(cc.engines, &engine{cc: cc, idx: i})
	}
	bus.AttachController(cc)
	net.Attach(node, cc.deliver)
	return cc
}

// HandlerCount returns how many times handler h was dispatched.
func (cc *Controller) HandlerCount(h protocol.Handler) uint64 {
	return cc.handlerCounts[h]
}

// HandlerBusy returns the total engine occupancy charged by handler h.
func (cc *Controller) HandlerBusy(h protocol.Handler) sim.Time {
	return cc.handlerBusy[h]
}

// PendingOps reports outstanding transient state (for end-of-run checks).
func (cc *Controller) PendingOps() int { return len(cc.homeOps) + len(cc.mshr) }

// QueueDepths returns engine i's input-queue depths (for the sampler and
// stall snapshots).
func (cc *Controller) QueueDepths(i int) (resp, req, bus int) {
	q := &cc.engines[i].q
	return len(q[obs.QResp]), len(q[obs.QReq]), len(q[obs.QBus])
}

// EngineBusy reports whether engine i is executing a handler right now.
func (cc *Controller) EngineBusy(i int) bool { return cc.engines[i].busy }

// sortedLines returns the lines of a controller table in ascending order,
// so that the dumps below are deterministic.
func sortedLines[V any](table map[uint64]V) []uint64 {
	lines := make([]uint64, 0, len(table))
	for line := range table {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return lines
}

// DumpPending describes outstanding transient state for deadlock
// diagnostics.
func (cc *Controller) DumpPending() string {
	var b strings.Builder
	for _, line := range sortedLines(cc.homeOps) {
		op := cc.homeOps[line]
		fmt.Fprintf(&b, "node %d homeOp line=%#x excl=%v req=%d acks=%d needData=%v haveData=%v interv=%v waitWB=%v wbArr=%v upgrade=%v waiters=%d\n",
			cc.node, line, op.excl, op.requester, op.acksLeft, op.needData,
			op.haveData, op.intervention, op.waitWB, op.wbArrived, op.upgrade, len(op.waiters))
	}
	for _, line := range sortedLines(cc.mshr) {
		m := cc.mshr[line]
		fmt.Fprintf(&b, "node %d mshr line=%#x excl=%v filling=%v waiters=%d\n",
			cc.node, line, m.excl, m.filling, len(m.waiters))
	}
	for i, e := range cc.engines {
		fmt.Fprintf(&b, "node %d engine %d busy=%v busQ=%d reqQ=%d respQ=%d\n",
			cc.node, i, e.busy, len(e.q[obs.QBus]), len(e.q[obs.QReq]), len(e.q[obs.QResp]))
	}
	return b.String()
}

// StateSnapshot renders the controller's complete transient state as a
// deterministic string. Two controllers with equal snapshots will behave
// identically given identical future inputs; the protocol checker's
// replays fold snapshots into their quiescent-state hash.
func (cc *Controller) StateSnapshot() string {
	var b strings.Builder
	for _, line := range sortedLines(cc.homeOps) {
		op := cc.homeOps[line]
		fmt.Fprintf(&b, "h%#x:e%vr%da%dn%vd%vi%vw%vb%vf%vu%vq%d;",
			line, op.excl, op.requester, op.acksLeft, op.needData, op.haveData,
			op.intervention, op.waitWB, op.wbArrived, op.finishing, op.upgrade,
			len(op.waiters))
	}
	for _, line := range sortedLines(cc.mshr) {
		m := cc.mshr[line]
		fmt.Fprintf(&b, "m%#x:e%vr%vf%vq%d;", line, m.excl, m.responseArrived,
			m.filling, len(m.waiters))
	}
	for i, e := range cc.engines {
		fmt.Fprintf(&b, "e%d:b%vs%d", i, e.busy, e.netStreak)
		for q, tag := range [...]byte{obs.QResp: 'R', obs.QReq: 'Q', obs.QBus: 'B'} {
			for _, w := range e.q[q] {
				fmt.Fprintf(&b, "%c%s@%#x", tag, w.label(), cc.lineOf(w))
			}
		}
		b.WriteByte(';')
	}
	return b.String()
}

func (cc *Controller) costs() *config.CostTable { return &cc.cfg.Costs }

// engineFor selects the engine serving a line per the split policy.
func (cc *Controller) engineFor(line uint64) *engine {
	if len(cc.engines) == 1 {
		return cc.engines[0]
	}
	switch cc.cfg.Split {
	case config.SplitRoundRobin:
		cc.rr = (cc.rr + 1) % len(cc.engines)
		return cc.engines[cc.rr]
	case config.SplitDynamic:
		// Shortest-queue assignment (ties to the lowest index keep it
		// deterministic).
		best := cc.engines[0]
		bestLen := best.queueLen()
		for _, e := range cc.engines[1:] {
			if l := e.queueLen(); l < bestLen {
				best, bestLen = e, l
			}
		}
		return best
	case config.SplitRegion:
		// Memory regions interleave across all engines (Section 5's
		// "more protocol engines for different regions of memory").
		idx := int(line>>cc.cfg.RegionShift()) % len(cc.engines)
		return cc.engines[idx]
	default:
		if cc.space.Home(line) == cc.node {
			return cc.engines[0] // LPE
		}
		return cc.engines[1] // RPE
	}
}

// ---- bus-facing interface -------------------------------------------------

// Snoop implements the bus-side directory filter: it claims transactions
// that need protocol action and lets the memory controller or sibling
// caches serve the rest. It is side-effect-free (a claimed transaction is
// handed over via AcceptDeferred).
func (cc *Controller) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.Kind == smpbus.WriteBack {
		// Write-backs never need a deferred reply; remote ones arrive via
		// the direct data path (CaptureWriteBack).
		return smpbus.SnoopNone
	}
	if !txn.HomeLocal {
		// Remote-home line: if no sibling cache supplies it, the request
		// must travel to the home node.
		return smpbus.SnoopDefer
	}
	if cc.homeOps[txn.Line] != nil {
		return smpbus.SnoopDefer
	}
	e := cc.dir.Lookup(txn.Line)
	switch txn.Kind {
	case smpbus.Read:
		if e.State == directory.DirtyRemote {
			return smpbus.SnoopDefer
		}
		if e.State == directory.SharedRemote {
			// Memory may respond, but the requester must install Shared:
			// remote nodes hold copies.
			return smpbus.SnoopShared
		}
		return smpbus.SnoopNone
	case smpbus.ReadEx, smpbus.Upgrade:
		if e.State != directory.NoRemote {
			return smpbus.SnoopDefer
		}
		return smpbus.SnoopNone
	default:
		// Controller-issued kinds (Inval/Fetch/FetchEx) and deferred
		// replies never snoop their own controller.
		panic(fmt.Sprintf("core: controller snooped unexpected kind %v line %#x", txn.Kind, txn.Line))
	}
}

// AcceptDeferred receives a bus transaction the snoop claimed. On a Robust
// machine a full bus queue aborts the transaction on the bus instead: the
// requesting processor is told to retry and backs off.
func (cc *Controller) AcceptDeferred(txn *smpbus.Txn) {
	e := cc.engineFor(txn.Line)
	if cc.cfg.Robust && len(e.q[obs.QBus]) >= config.RobustQueueDepth {
		cc.st.BusAborts++
		cc.bus.Abort(txn)
		return
	}
	w := cc.newWork(work{arrival: cc.eng.Now(), txn: txn})
	cc.st.NoteArrival(w.arrival)
	e.enqueue(w)
}

// CaptureWriteBack implements the direct data path: a dirty-remote
// write-back is forwarded to the home node without dispatching a protocol
// handler.
func (cc *Controller) CaptureWriteBack(line uint64, sharedLeft bool, data uint64) {
	home := cc.space.Home(line)
	if home == cc.node {
		panic("core: direct data path invoked for a local line")
	}
	cc.send(cc.eng.Now(), home, &protocol.Msg{
		Type: protocol.MsgWriteBack, Line: line, Src: cc.node,
		Dirty: true, SharedLeft: sharedLeft, Data: data,
	})
}

// ---- network-facing interface ---------------------------------------------

func (cc *Controller) deliver(src int, payload interface{}) {
	msg, ok := payload.(*protocol.Msg)
	if !ok {
		panic(fmt.Sprintf("core: unexpected payload %T", payload))
	}
	now := cc.eng.Now()
	e := cc.engineFor(msg.Line)
	if msg.IsResponse() {
		isData := msg.Type == protocol.MsgDataShared ||
			msg.Type == protocol.MsgDataExcl || msg.Type == protocol.MsgOwnerData
		if isData {
			// A stale grant (an epoch a retried request already closed)
			// must not mark the current episode as answered: it will be
			// dropped at dispatch, and flagging it here would suppress the
			// episode's timeout and NACK retries.
			if m := cc.mshr[msg.Line]; m != nil && (!cc.cfg.Robust || msg.Epoch == m.epoch) {
				m.responseArrived = true
			}
		}
	} else if cc.cfg.Robust && msg.Nackable() {
		// Finite request queue: a NACKable request arriving at a full
		// queue (or at an armed ForceNackNext) is bounced straight back by
		// the NI, without consuming a handler dispatch. Non-NACKable
		// requests (forwarded interventions, invalidations, write-backs)
		// ride guaranteed channels with reserved buffering and are always
		// accepted.
		full := len(e.q[obs.QReq]) >= config.RobustQueueDepth
		if full || cc.forceNack > 0 {
			if !full {
				cc.forceNack--
			}
			cc.st.NacksSent++
			cc.tr.Nack(now, cc.node, e.idx, msg.Type.String(), msg.Line)
			cc.send(now, msg.Requester, &protocol.Msg{
				Type: protocol.MsgNack, Line: msg.Line, Src: cc.node,
				Requester: msg.Requester, Excl: msg.Type == protocol.MsgReadExReq,
				Epoch: msg.Epoch, Txn: msg.Txn,
			})
			cc.msgs.Put(msg)
			return
		}
	}
	cc.st.NoteArrival(now)
	e.enqueue(cc.newWork(work{arrival: now, msg: msg}))
}

// StallEngine occupies an idle protocol engine for dur cycles (fault
// injection: a transient engine stall). It reports whether the stall was
// applied; a busy engine is already stalled and absorbs the fault.
func (cc *Controller) StallEngine(idx int, dur sim.Time) bool {
	if len(cc.engines) == 0 || dur <= 0 {
		return false
	}
	e := cc.engines[idx%len(cc.engines)]
	if e.busy {
		return false
	}
	e.busy = true
	cc.eng.After(dur, (*idleStep)(e))
	return true
}

// send transmits a copy of msg, taken from the message pool, so the
// caller's literal never leaves its stack frame.
func (cc *Controller) send(at sim.Time, dst int, msg *protocol.Msg) {
	if dst == cc.node {
		panic(fmt.Sprintf("core: node %d sending %v to itself", dst, msg.Type))
	}
	if dst < 0 {
		panic(fmt.Sprintf("core: message %v to unmapped home %d (line %#x)", msg.Type, dst, msg.Line))
	}
	if cc.hook != nil {
		cc.hook.Send(cc.node, cc.inDispatch, cc.curTrigger, cc.curHandler, msg.Type)
	}
	m := cc.newMsg()
	*m = *msg
	cc.net.Send(at, cc.node, dst, m.Flits(cc.cfg), m)
}

// ---- dispatch -------------------------------------------------------------

// queueLen returns the engine's total queued work plus any in-service
// handler (the dynamic split's load metric).
func (e *engine) queueLen() int {
	n := 0
	if e.busy {
		n++
	}
	for _, q := range e.q {
		n += len(q)
	}
	return n
}

// idle ends the engine's current occupancy and re-arbitrates.
func (e *engine) idle() {
	e.busy = false
	e.kick()
}

// kick starts a dispatch if the engine is idle and work is queued.
func (e *engine) kick() {
	if e.busy {
		return
	}
	w := e.pick()
	if w == nil {
		return
	}
	e.dispatch(w)
}

// enqueue appends w to its input queue and starts a dispatch if the
// engine is idle. w.arrival must already be set.
func (e *engine) enqueue(w *work) {
	cc := e.cc
	q := w.queue()
	e.q[q] = append(e.q[q], w)
	cc.tr.Enqueue(w.arrival, cc.node, e.idx, q, len(e.q[q]), w.label(), cc.lineOf(w))
	id, epoch := w.span()
	cc.tr.SpanBegin(id, obs.StageCCQueue, epoch, w.arrival)
	e.kick()
}

// take removes the head of input queue q, tracing the removal. The queue
// shifts down in place, so it keeps reusing its backing array.
func (e *engine) take(q int) *work {
	s := e.q[q]
	w := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	e.q[q] = s[:n]
	e.cc.tr.Dequeue(e.cc.eng.Now(), e.cc.node, e.idx, q, n, e.cc.lineOf(w))
	return w
}

// pick removes and returns the next work item per the arbitration policy.
func (e *engine) pick() *work {
	if e.cc.cfg.Arbitration == config.ArbFIFO {
		// Oldest head first; equal arrivals go in priority order.
		best := -1
		for q := range e.q {
			if len(e.q[q]) > 0 && (best < 0 || e.q[q][0].arrival < e.q[best][0].arrival) {
				best = q
			}
		}
		if best < 0 {
			return nil
		}
		return e.take(best)
	}
	// Paper policy: responses, then network requests, then bus requests —
	// with the anti-livelock exception for long-waiting bus requests.
	resp, req, bus := len(e.q[obs.QResp]) > 0, len(e.q[obs.QReq]) > 0, len(e.q[obs.QBus]) > 0
	switch {
	case resp:
		return e.take(obs.QResp)
	case bus && req && e.netStreak >= e.cc.cfg.LivelockLimit:
		e.netStreak = 0
		return e.take(obs.QBus)
	case req:
		if bus {
			e.netStreak++
		}
		return e.take(obs.QReq)
	case bus:
		e.netStreak = 0
		return e.take(obs.QBus)
	}
	return nil
}

// dispatch runs w's handler, occupying the engine for the handler's
// occupancy, then re-arbitrates.
func (e *engine) dispatch(w *work) {
	cc := e.cc
	now := cc.eng.Now()
	est := &cc.st.Engines[e.idx]
	est.Dispatches++
	est.QueueDelay += now - w.arrival
	est.QueueDelayHist.Add(now - w.arrival)
	id, epoch := w.span()
	cc.tr.SpanEnd(id, obs.StageCCQueue, epoch, now)

	e.busy = true
	if cc.hook != nil {
		cc.inDispatch = true
		cc.curTrigger = w.trigger()
		cc.curHandler = -1
	}
	var occ sim.Time
	if w.txn != nil {
		occ = cc.handleBusTxn(w)
	} else {
		occ = cc.handleMsg(w)
	}
	cc.inDispatch = false
	if occ <= 0 {
		panic("core: handler with non-positive occupancy")
	}
	est.Busy += occ
	if cc.tr.Enabled() {
		cc.tr.Dispatch(now, cc.node, e.idx, w.label(), cc.lineOf(w), occ, now-w.arrival)
	}
	if !w.parked {
		cc.freeWork(w)
	}
	cc.eng.At(now+occ, (*idleStep)(e))
}

// charge computes a handler's total occupancy and its action time (the
// cycle at which the handler's externally visible action — bus request or
// network send — is issued). dirExtra is a directory-DRAM stall inserted
// before the action; extraInvals adds per-invalidation fan-out work.
func (cc *Controller) charge(h protocol.Handler, dirExtra sim.Time, extraInvals int) (occ sim.Time, actionAt sim.Time) {
	cc.handlerCounts[h]++
	if cc.hook != nil && cc.inDispatch && cc.curHandler < 0 {
		cc.curHandler = h
		cc.hook.Dispatch(cc.node, cc.curTrigger, h)
	}
	k := cc.kind
	disp := cc.cfg.Costs.Cost(k, config.OpDispatch)
	// Handlers that fetch the line over the local bus keep the engine
	// occupied for the no-contention access time (the paper's handler
	// occupancies include SMP bus and local memory access times); the
	// fetch is issued at the action point and the engine stalls after it.
	stall := protocol.StallTime(cc.cfg, protocol.Stall(h))
	occ = disp + protocol.Occupancy(cc.costs(), k, h, extraInvals) + dirExtra + stall
	cc.handlerBusy[h] += occ
	actionAt = cc.eng.Now() + disp +
		protocol.PrefixOccupancy(cc.costs(), k, h, protocol.ActionIndex(h)) + dirExtra
	return occ, actionAt
}

// homeFetchStall is the engine stall charged by state-dependent paths that
// fetch from home memory under a handler whose common case does not.
func (cc *Controller) homeFetchStall() sim.Time {
	return protocol.StallTime(cc.cfg, protocol.StallHomeFetch)
}

// perInvalCost is the engine time per additional invalidation sent.
func (cc *Controller) perInvalCost() sim.Time {
	var t sim.Time
	for _, op := range protocol.PerInvalOps {
		t += cc.cfg.Costs.Cost(cc.kind, op)
	}
	return t
}

// requeue parks w on a waiter list with the busy-check occupancy.
func (cc *Controller) requeue(list *[]*work, w *work) sim.Time {
	occ, _ := cc.charge(protocol.HBusyRequeue, 0, 0)
	w.parked = true
	*list = append(*list, w)
	return occ
}

// replay re-enqueues parked work after the blocking state cleared.
func (cc *Controller) replay(ws []*work) {
	for _, w := range ws {
		w.arrival = cc.eng.Now()
		w.parked = false
		cc.engineFor(cc.lineOf(w)).enqueue(w)
	}
}

func (cc *Controller) lineOf(w *work) uint64 {
	if w.txn != nil {
		return w.txn.Line
	}
	return w.msg.Line
}
