package core

import (
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// The controller recycles every object a miss needs: queued work, protocol
// messages, home ops, MSHR entries, its own bus transactions, and the
// continuations that run later on a home op or an MSHR entry. Each kind has
// a free list that starts empty and grows on demand. A home op or an MSHR
// entry goes back to its list as soon as its operation retires. Its
// generation, which survives reuse, counts those retirements: every
// continuation and home fetch records the generation when it is armed and
// does nothing if the object has retired since, so a step armed for one
// operation never acts on a later operation that reused the object
// (DESIGN §11.5).

// MsgPool is the free list of protocol messages shared by the controllers
// that run on one engine. A message is taken by the controller that sends
// it and returned by the one that handles it, so a node that sends more
// than it receives (the owner in a three-hop miss) reuses the messages its
// neighbours returned. Keying the list by engine keeps every list on one
// goroutine in a sharded run.
type MsgPool struct {
	sim.FreeList[protocol.Msg]
}

// newMsg returns an idle message from the engine's pool.
func (cc *Controller) newMsg() *protocol.Msg {
	if m := cc.msgs.Get(); m != nil {
		return m
	}
	return new(protocol.Msg)
}

// newWork returns an idle work item set to w.
func (cc *Controller) newWork(w work) *work {
	x := cc.works.Get()
	if x == nil {
		x = new(work)
	}
	*x = w
	return x
}

// freeWork returns a handled work item, and its message, to their lists.
func (cc *Controller) freeWork(w *work) {
	if w.msg != nil {
		cc.msgs.Put(w.msg)
	}
	*w = work{}
	cc.works.Put(w)
}

// recycled is the part of a home op or an MSHR entry that survives its
// reuse: the waiter list's array, and gen, the number of times the object
// has retired.
type recycled struct {
	waiters []*work
	gen     uint32
}

// retire empties the waiter list and starts the object's next generation.
func (r *recycled) retire() {
	clear(r.waiters)
	r.waiters = r.waiters[:0]
	r.gen++
}

// newHomeOp returns an idle home op set to v.
func (cc *Controller) newHomeOp(v homeOp) *homeOp {
	op := cc.ops.Get()
	if op == nil {
		op = new(homeOp)
	}
	v.recycled = op.recycled
	*op = v
	return op
}

// freeOp recycles an op that retired or was never installed.
func (cc *Controller) freeOp(op *homeOp) {
	op.retire()
	cc.ops.Put(op)
}

// newMSHR returns an idle MSHR entry set to v. The entry keeps its count
// of armed timeouts and its bound timer across reuse (see armTimeout).
func (cc *Controller) newMSHR(v mshrEntry) *mshrEntry {
	m := cc.mshrs.Get()
	if m == nil {
		m = new(mshrEntry)
	}
	v.recycled, v.timeouts, v.timeoutFn = m.recycled, m.timeouts, m.timeoutFn
	*m = v
	return m
}

// freeMSHR recycles an entry whose fill has retired it.
func (cc *Controller) freeMSHR(m *mshrEntry) {
	m.retire()
	cc.mshrs.Put(m)
}

// ---- continuations ---------------------------------------------------------

// cont is a controller method waiting to run on a home op or an MSHR entry,
// at a scheduled cycle (the cont is the action scheduled) or when a parked
// bus transaction completes. gen is the object's generation when the cont
// was armed: the method runs only if the object has not retired since.
// doneFn is done, bound once per cont.
type cont struct {
	cc   *Controller
	op   *homeOp
	opFn func(*Controller, *homeOp)
	m    *mshrEntry
	mFn  func(*Controller, *mshrEntry)
	gen  uint32
	// delay, when delayed is set, is waited out from the first firing
	// before the method runs.
	delay   sim.Time
	delayed bool
	// orig is the parked transaction's own Done, which runs first.
	orig func(smpbus.Outcome)

	doneFn func(smpbus.Outcome)
}

func (cc *Controller) newCont() *cont {
	k := cc.conts.Get()
	if k == nil {
		k = &cont{cc: cc}
		k.doneFn = k.done
	}
	return k
}

// Fire is a cont's scheduled event.
func (k *cont) Fire() {
	if k.delayed {
		k.delayed = false
		k.cc.eng.After(k.delay, k)
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

// run recycles the cont, then runs its method if the object is still in
// the generation the cont was armed in.
func (k *cont) run() {
	cc, op, opFn, m, mFn, gen := k.cc, k.op, k.opFn, k.m, k.mFn, k.gen
	*k = cont{cc: cc, doneFn: k.doneFn}
	cc.conts.Put(k)
	if op != nil {
		if op.gen == gen {
			opFn(cc, op)
		}
	} else if m.gen == gen {
		mFn(cc, m)
	}
}

// opAt runs fn on op at cycle at.
func (cc *Controller) opAt(at sim.Time, fn func(*Controller, *homeOp), op *homeOp) {
	k := cc.newCont()
	k.op, k.opFn, k.gen = op, fn, op.gen
	cc.eng.At(at, k)
}

// opOnDone runs fn on op when the parked transaction txn completes, after
// txn's own Done. The processor re-arms Done on every issue, so the wrapper
// lasts one issue.
func (cc *Controller) opOnDone(txn *smpbus.Txn, fn func(*Controller, *homeOp), op *homeOp) {
	k := cc.newCont()
	k.op, k.opFn, k.gen, k.orig = op, fn, op.gen, txn.Done
	txn.Done = k.doneFn
}

// mshrAt runs fn on m at cycle at.
func (cc *Controller) mshrAt(at sim.Time, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn, k.gen = m, fn, m.gen
	cc.eng.At(at, k)
}

// mshrAtAfter runs fn on m delay cycles after cycle at, scheduling the
// delay from an event at at.
func (cc *Controller) mshrAtAfter(at, delay sim.Time, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn, k.gen = m, fn, m.gen
	k.delay, k.delayed = delay, true
	cc.eng.At(at, k)
}

// mshrOnDone runs fn on m when the parked transaction txn completes, after
// txn's own Done.
func (cc *Controller) mshrOnDone(txn *smpbus.Txn, fn func(*Controller, *mshrEntry), m *mshrEntry) {
	k := cc.newCont()
	k.m, k.mFn, k.gen, k.orig = m, fn, m.gen, txn.Done
	txn.Done = k.doneFn
}

// ---- controller-issued bus transactions ------------------------------------

// ccTxn is a bus transaction the controller issues on its own behalf: a
// home fetch for an op, an intervention at the owner, an invalidation at a
// sharer, or a home memory write. then is the controller method its
// completion runs (nil for a memory write). The embedded Txn's Done is
// done, bound once per ccTxn, and the issue is an issueStep, so a recycled
// ccTxn issues without allocating.
type ccTxn struct {
	smpbus.Txn
	cc   *Controller
	then func(*Controller, *ccTxn, smpbus.Outcome)
	// op is the home op a fetch collects data for, and gen its generation
	// when the fetch was issued: the completion runs only for that
	// generation.
	op  *homeOp
	gen uint32
	// home, requester, excl and fromHome route an intervention's data and
	// completion notice (home alone routes an invalidation's ack); spanID
	// and spanEpoch are the requester's causal-span identity.
	home, requester int
	excl, fromHome  bool
	spanID          uint64
	spanEpoch       uint32
}

// issueStep puts a controller transaction on the bus at its action time.
type issueStep ccTxn

func (s *issueStep) Fire() { t := (*ccTxn)(s); t.cc.bus.Issue(&t.Txn) }

// newTxn returns an idle controller transaction of kind on line, carrying
// no data, completed by then. The caller sets the fields its completion
// reads.
func (cc *Controller) newTxn(kind smpbus.Kind, line uint64, homeLocal bool,
	then func(*Controller, *ccTxn, smpbus.Outcome)) *ccTxn {
	t := cc.txns.Get()
	if t == nil {
		t = &ccTxn{cc: cc}
		t.Src = smpbus.CCSrc
		t.Done = t.done
	}
	t.Kind, t.Line, t.HomeLocal, t.Data, t.then = kind, line, homeLocal, 0, then
	return t
}

// done runs the completion, unless the transaction fetched for an op that
// has retired since, and recycles the transaction.
func (t *ccTxn) done(o smpbus.Outcome) {
	if t.then != nil && (t.op == nil || t.op.gen == t.gen) {
		t.then(t.cc, t, o)
	}
	t.then, t.op = nil, nil
	t.cc.txns.Put(t)
}
