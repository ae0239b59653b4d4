package core

import (
	"fmt"

	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// The controller recycles every object a miss needs: queued work, protocol
// messages, home ops, MSHR entries, its own bus transactions, and the
// continuations that run later on a home op or an MSHR entry. Each kind has
// a free list that starts empty and grows on demand. An object goes back to
// its list only when nothing can still reach it: no pending event, waiter
// list, in-flight bus transaction or network frame. Home ops and MSHR
// entries count what can reach them in pins, so a continuation never runs on
// an object that was recycled for a later operation (DESIGN §11.5).

// freeList is a stack of idle objects of one kind.
type freeList[T any] struct {
	idle []*T
}

// get pops an idle object, or returns nil when the list is empty.
func (l *freeList[T]) get() *T {
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	x := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) { l.idle = append(l.idle, x) }

// MsgPool is the free list of protocol messages shared by the controllers
// that run on one engine. A message is taken by the controller that sends
// it and returned by the one that handles it, so a node that sends more
// than it receives (the owner in a three-hop miss) reuses the messages its
// neighbours returned. Keying the list by engine keeps every list on one
// goroutine in a sharded run.
type MsgPool struct {
	freeList[protocol.Msg]
}

// newMsg returns an idle message from the engine's pool.
func (cc *Controller) newMsg() *protocol.Msg {
	if m := cc.msgs.get(); m != nil {
		return m
	}
	return new(protocol.Msg)
}

// newWork returns an idle work item set to w.
func (cc *Controller) newWork(w work) *work {
	x := cc.works.get()
	if x == nil {
		x = new(work)
	}
	*x = w
	return x
}

// freeWork returns a handled work item, and its message, to their lists.
func (cc *Controller) freeWork(w *work) {
	if w.msg != nil {
		cc.msgs.put(w.msg)
	}
	*w = work{}
	cc.works.put(w)
}

// newHomeOp returns an idle home op set to v, pinned once for its entry in
// homeOps: retiring the op, or dropping one that was never installed,
// unpins it.
func (cc *Controller) newHomeOp(v homeOp) *homeOp {
	op := cc.ops.get()
	if op == nil {
		op = new(homeOp)
	}
	v.waiters = op.waiters // reuse the waiter list's array
	*op = v
	op.pins = 1
	return op
}

// unpinOp drops one reference to op and recycles it after the last.
func (cc *Controller) unpinOp(op *homeOp) {
	op.pins--
	if op.pins > 0 {
		return
	}
	if op.pins < 0 {
		panic(fmt.Sprintf("core: home op for line %#x unpinned more often than pinned", op.line))
	}
	clear(op.waiters)
	*op = homeOp{waiters: op.waiters[:0]}
	cc.ops.put(op)
}

// newMSHR returns an idle MSHR entry set to v, pinned once for its entry in
// mshr until the fill retires it.
func (cc *Controller) newMSHR(v mshrEntry) *mshrEntry {
	m := cc.mshrs.get()
	if m == nil {
		m = new(mshrEntry)
	}
	v.waiters = m.waiters
	*m = v
	m.pins = 1
	return m
}

// unpinMSHR drops one reference to m and recycles it after the last.
func (cc *Controller) unpinMSHR(m *mshrEntry) {
	m.pins--
	if m.pins > 0 {
		return
	}
	if m.pins < 0 {
		panic(fmt.Sprintf("core: MSHR entry for line %#x unpinned more often than pinned", m.line))
	}
	clear(m.waiters)
	*m = mshrEntry{waiters: m.waiters[:0]}
	cc.mshrs.put(m)
}

// ---- continuations ---------------------------------------------------------

// cont is a controller method waiting to run on a home op or an MSHR entry,
// at a scheduled cycle or when a parked bus transaction completes. It pins
// its object until the method has run. fireFn and doneFn are fire and done,
// bound once per cont.
type cont struct {
	cc   *Controller
	op   *homeOp
	opFn func(*Controller, *homeOp)
	m    *mshrEntry
	mFn  func(*Controller, *mshrEntry)
	// delay, when delayed is set, is waited out from the first firing
	// before the method runs.
	delay   sim.Time
	delayed bool
	// orig is the parked transaction's own Done, which runs first.
	orig func(smpbus.Outcome)

	fireFn func()
	doneFn func(smpbus.Outcome)
}

func (cc *Controller) newCont() *cont {
	k := cc.conts.get()
	if k == nil {
		k = &cont{cc: cc}
		k.fireFn = k.fire
		k.doneFn = k.done
	}
	return k
}

// fire is a cont's scheduled event.
func (k *cont) fire() {
	if k.delayed {
		k.delayed = false
		k.cc.eng.After(k.delay, k.fireFn)
		return
	}
	k.run()
}

// done is the Done a cont installs on a parked transaction: the
// transaction's own Done runs first, then the method.
func (k *cont) done(o smpbus.Outcome) {
	k.orig(o)
	k.run()
}

// run recycles the cont, then runs its method and unpins the object.
func (k *cont) run() {
	cc, op, opFn, m, mFn := k.cc, k.op, k.opFn, k.m, k.mFn
	*k = cont{cc: cc, fireFn: k.fireFn, doneFn: k.doneFn}
	cc.conts.put(k)
	if op != nil {
		opFn(cc, op)
		cc.unpinOp(op)
		return
	}
	mFn(cc, m)
	cc.unpinMSHR(m)
}

// opAt runs fn on op at cycle at.
func (cc *Controller) opAt(at sim.Time, fn func(*Controller, *homeOp), op *homeOp) {
	k := cc.newCont()
	k.op, k.opFn = op, fn
	op.pins++
	cc.eng.At(at, k.fireFn)
}

// opOnDone runs fn on op when the parked transaction txn completes, after
// txn's own Done. The processor re-arms Done on every issue, so the wrapper
// lasts one issue.
func (cc *Controller) opOnDone(txn *smpbus.Txn, fn func(*Controller, *homeOp), op *homeOp) {
	k := cc.newCont()
	k.op, k.opFn, k.orig = op, fn, txn.Done
	op.pins++
	txn.Done = k.doneFn
}

// mshrAt runs fn on m at cycle at.
func (cc *Controller) mshrAt(at sim.Time, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn = m, fn
	m.pins++
	cc.eng.At(at, k.fireFn)
}

// mshrAtAfter runs fn on m delay cycles after cycle at, scheduling the
// delay from an event at at.
func (cc *Controller) mshrAtAfter(at, delay sim.Time, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn = m, fn
	k.delay, k.delayed = delay, true
	m.pins++
	cc.eng.At(at, k.fireFn)
}

// mshrOnDone runs fn on m when the parked transaction txn completes, after
// txn's own Done.
func (cc *Controller) mshrOnDone(txn *smpbus.Txn, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn, k.orig = m, fn, txn.Done
	m.pins++
	txn.Done = k.doneFn
}

// ---- controller-issued bus transactions ------------------------------------

// ccTxn is a bus transaction the controller issues on its own behalf: a
// home fetch for an op, an intervention at the owner, an invalidation at a
// sharer, or a home memory write. then is the controller method its
// completion runs (nil for a memory write). issueFn and the embedded Txn's
// Done are issue and done, bound once per ccTxn; the bus binds its own
// callbacks on the first issue, so a recycled ccTxn issues without
// allocating.
type ccTxn struct {
	smpbus.Txn
	cc   *Controller
	then func(*Controller, *ccTxn, smpbus.Outcome)
	// op is the home op a fetch collects data for, pinned while the fetch
	// is in flight.
	op *homeOp
	// home, requester, excl and fromHome route an intervention's data and
	// completion notice (home alone routes an invalidation's ack); spanID
	// and spanEpoch are the requester's causal-span identity.
	home, requester int
	excl, fromHome  bool
	spanID          uint64
	spanEpoch       uint32

	issueFn func()
}

// newTxn returns an idle controller transaction of kind on line, carrying
// no data, completed by then. The caller sets the fields its completion
// reads.
func (cc *Controller) newTxn(kind smpbus.Kind, line uint64, homeLocal bool,
	then func(*Controller, *ccTxn, smpbus.Outcome)) *ccTxn {
	t := cc.txns.get()
	if t == nil {
		t = &ccTxn{cc: cc}
		t.Src = smpbus.CCSrc
		t.Done = t.done
		t.issueFn = t.issue
	}
	t.Kind, t.Line, t.HomeLocal, t.Data, t.then = kind, line, homeLocal, 0, then
	return t
}

func (t *ccTxn) issue() { t.cc.bus.Issue(&t.Txn) }

// done runs the completion, recycles the transaction and unpins its op.
func (t *ccTxn) done(o smpbus.Outcome) {
	cc, op := t.cc, t.op
	if t.then != nil {
		t.then(cc, t, o)
	}
	t.then, t.op = nil, nil
	cc.txns.put(t)
	if op != nil {
		cc.unpinOp(op)
	}
}
