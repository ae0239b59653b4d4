package core

import (
	"fmt"

	"ccnuma/internal/directory"
	"ccnuma/internal/obs"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// spanEngine checkpoints the engine occupancy on the critical path of w's
// transaction: dispatch to the handler's action point, minus any
// directory-DRAM stall, which is attributed separately.
func (cc *Controller) spanEngine(w *work, act, dirExtra sim.Time) {
	txn, epoch := w.span()
	cc.tr.SpanBegin(txn, obs.StageEngine, epoch, cc.eng.Now())
	cc.tr.SpanEnd(txn, obs.StageEngine, epoch, act-dirExtra)
	cc.tr.SpanEnd(txn, obs.StageDirectory, epoch, act)
}

// spanHome marks the start of the home-side wait window: the op is parked
// from the handler's action point until finishOp issues the grant.
func (cc *Controller) spanHome(w *work, act sim.Time) {
	txn, epoch := w.span()
	cc.tr.SpanBegin(txn, obs.StageHomeWait, epoch, act)
}

// handleBusTxn dispatches a deferred bus transaction and returns the
// engine occupancy.
func (cc *Controller) handleBusTxn(w *work) sim.Time {
	txn := w.txn
	if txn.HomeLocal {
		return cc.handleLocalBus(w)
	}
	return cc.handleRemoteBus(w)
}

// ---- requester side: misses to remote-home lines ---------------------------

func (cc *Controller) handleRemoteBus(w *work) sim.Time {
	txn := w.txn
	line := txn.Line
	home := cc.space.Home(line)
	if m := cc.mshr[line]; m != nil {
		// The bus serializes processor transactions per line, so a second
		// processor transaction can only appear here through a replay race;
		// park it behind the outstanding one.
		return cc.requeue(&m.waiters, w)
	}
	excl := txn.Kind != smpbus.Read
	h := protocol.HBusReadRemote
	mt := protocol.MsgReadReq
	if excl {
		h = protocol.HBusReadExRemote
		mt = protocol.MsgReadExReq
	}
	occ, act := cc.charge(h, 0, 0)
	cc.spanEngine(w, act, 0)
	cc.epochCtr++
	m := cc.newMSHR(mshrEntry{line: line, excl: excl, parked: txn,
		issuedAt: cc.eng.Now(), epoch: cc.epochCtr})
	cc.mshr[line] = m
	cc.tr.SpanEpoch(txn.Attr, m.epoch)
	cc.send(act, home, &protocol.Msg{Type: mt, Line: line, Src: cc.node,
		Requester: cc.node, Epoch: m.epoch, Txn: txn.Attr})
	cc.armTimeout(m)
	return occ
}

// mshrFill completes an outstanding miss: the parked transaction is
// supplied on the bus; when the fill finishes, queued interventions and
// invalidations for the line are replayed.
func (cc *Controller) mshrFill(m *mshrEntry) {
	m.filling = true
	cc.mshrOnDone(m.parked, (*Controller).mshrFilled, m)
	cc.bus.Supply(m.parked, true, m.shared, m.data)
}

// mshrFilled retires the miss once the fill has reached the processor.
func (cc *Controller) mshrFilled(m *mshrEntry) {
	delete(cc.mshr, m.line)
	cc.replay(m.waiters)
	cc.freeMSHR(m)
}

// ---- home side: local-home lines -------------------------------------------

func (cc *Controller) handleLocalBus(w *work) sim.Time {
	txn := w.txn
	line := txn.Line
	if op := cc.homeOps[line]; op != nil {
		return cc.requeue(&op.waiters, w)
	}
	switch txn.Kind {
	case smpbus.Read:
		return cc.homeLocalRead(w)
	case smpbus.ReadEx, smpbus.Upgrade:
		return cc.homeLocalReadEx(w)
	default:
		panic(fmt.Sprintf("core: unexpected deferred bus txn %v", txn.Kind))
	}
}

// homeLocalRead serves a local processor read that the snoop deferred
// (line dirty in a remote node, or the state changed while queued).
func (cc *Controller) homeLocalRead(w *work) sim.Time {
	txn := w.txn
	line := txn.Line
	entry, dirExtra := cc.dir.Read(cc.eng.Now(), line)
	occ, act := cc.charge(protocol.HBusReadLocalDirtyRemote, dirExtra, 0)
	cc.spanEngine(w, act, dirExtra)
	cc.spanHome(w, act)

	op := cc.newHomeOp(homeOp{line: line, requester: -1, parked: txn})
	cc.homeOps[line] = op

	switch entry.State {
	case directory.DirtyRemote:
		op.intervention = true
		op.finalDir = directory.Entry{State: directory.SharedRemote,
			Sharers: directory.Bitmap(0).Set(entry.Owner)}
		cc.send(act, entry.Owner, &protocol.Msg{
			Type: protocol.MsgFetchReq, Line: line, Src: cc.node, Requester: cc.node,
			Txn: txn.Attr,
		})
	case directory.NoRemote, directory.SharedRemote:
		// The directory changed while the request was queued: the line is
		// now clean at home (or shared remotely). Fetch from memory and
		// supply.
		occ += cc.homeFetchStall()
		op.needData = true
		op.finalDir = entry
		cc.fetchForOp(act, op, false)
	default:
		panic(fmt.Sprintf("core: local read of line %#x in unknown directory state %v", line, entry.State))
	}
	return occ
}

// homeLocalReadEx serves a local processor read-exclusive or upgrade that
// the snoop deferred (remote copies exist).
func (cc *Controller) homeLocalReadEx(w *work) sim.Time {
	txn := w.txn
	line := txn.Line
	upgrade := txn.Kind == smpbus.Upgrade
	entry, dirExtra := cc.dir.Read(cc.eng.Now(), line)

	op := cc.newHomeOp(homeOp{line: line, requester: -1, parked: txn, excl: true, upgrade: upgrade,
		finalDir: directory.Entry{State: directory.NoRemote}})

	switch entry.State {
	case directory.SharedRemote:
		invals := entry.Sharers.Count()
		extra := invals - 1
		if extra < 0 {
			extra = 0
		}
		occ, act := cc.charge(protocol.HBusReadExLocalCachedRemote, dirExtra, extra)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		op.acksLeft = invals
		cc.sendInvals(act, entry.Sharers, line)
		if !upgrade {
			occ += cc.homeFetchStall()
			op.needData = true
			cc.fetchForOp(act, op, true)
		}
		return occ
	case directory.DirtyRemote:
		occ, act := cc.charge(protocol.HBusReadExLocalDirtyRemote, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		op.intervention = true
		cc.send(act, entry.Owner, &protocol.Msg{
			Type: protocol.MsgFetchExReq, Line: line, Src: cc.node, Requester: cc.node,
			Txn: txn.Attr,
		})
		return occ
	case directory.NoRemote: // state changed while queued
		occ, act := cc.charge(protocol.HBusReadExLocalCachedRemote, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		if upgrade {
			cc.opAt(act, (*Controller).finishOp, op)
		} else {
			occ += cc.homeFetchStall()
			op.needData = true
			cc.fetchForOp(act, op, true)
		}
		return occ
	default:
		panic(fmt.Sprintf("core: local readex of line %#x in unknown directory state %v", line, entry.State))
	}
}

// sendInvals fans invalidations out to every node in the sharing vector,
// spacing the sends by the per-invalidation engine cost.
func (cc *Controller) sendInvals(act sim.Time, sharers directory.Bitmap, line uint64) {
	per := cc.perInvalCost()
	i := 0
	sharers.ForEach(func(node int) {
		cc.send(act+sim.Time(i)*per, node, &protocol.Msg{
			Type: protocol.MsgInval, Line: line, Src: cc.node,
		})
		i++
	})
}

// fetchForOp issues the home-side bus fetch that collects line data from
// local memory or the home node's own caches. The fetch completion is
// engine-free (the network/bus data transfer was armed by the handler).
func (cc *Controller) fetchForOp(at sim.Time, op *homeOp, exclusive bool) {
	kind := smpbus.Fetch
	if exclusive {
		kind = smpbus.FetchEx
	}
	t := cc.newTxn(kind, op.line, true, (*Controller).homeFetched)
	t.op, t.gen = op, op.gen
	cc.eng.At(at, (*issueStep)(t))
}

// homeFetched collects the data of an op's home fetch.
func (cc *Controller) homeFetched(t *ccTxn, o smpbus.Outcome) {
	op := t.op
	switch o.Status {
	case smpbus.OK:
		st, se := op.span()
		cc.tr.SpanEnd(st, obs.StageMem, se, cc.eng.Now())
		op.haveData = true
		op.data = o.Data
		cc.finishIfReady(op)
	default:
		panic(fmt.Sprintf("core: home fetch of local line %#x failed: %+v", op.line, o))
	}
}

// finishIfReady completes the op if nothing remains outstanding.
func (cc *Controller) finishIfReady(op *homeOp) {
	if !op.finishing && op.ready() {
		cc.finishOp(op)
	}
}

// finishOp responds to the requester, writes the final directory state,
// and replays any queued conflicting requests. For a local requester the
// op stays open until the deferred bus reply has actually delivered the
// line: retiring earlier would let a queued remote request race the supply
// and double-grant ownership.
func (cc *Controller) finishOp(op *homeOp) {
	if op.finishing {
		return
	}
	op.finishing = true
	now := cc.eng.Now()
	st, se := op.span()
	cc.tr.SpanEnd(st, obs.StageHomeWait, se, now)
	if op.requester >= 0 {
		mt := protocol.MsgDataShared
		if op.excl {
			mt = protocol.MsgDataExcl
		}
		cc.send(now, op.requester, &protocol.Msg{
			Type: mt, Line: op.line, Src: cc.node, Requester: op.requester,
			Data: op.data, Epoch: op.epoch, Txn: op.txn,
		})
	} else if op.parked != nil {
		cc.opOnDone(op.parked, (*Controller).retireOp, op)
		cc.bus.Supply(op.parked, !op.upgrade, !op.excl, op.data)
		return
	}
	cc.retireOp(op)
}

// retireOp writes the op's final directory state, unblocks waiters and
// recycles the op.
func (cc *Controller) retireOp(op *homeOp) {
	cc.dir.Write(cc.eng.Now(), op.line, op.finalDir)
	delete(cc.homeOps, op.line)
	cc.replay(op.waiters)
	cc.freeOp(op)
}

// ---- network message handlers ----------------------------------------------

func (cc *Controller) handleMsg(w *work) sim.Time {
	msg := w.msg
	switch msg.Type {
	case protocol.MsgReadReq:
		return cc.homeRead(w)
	case protocol.MsgReadExReq:
		return cc.homeReadEx(w)
	case protocol.MsgFetchReq:
		return cc.ownerFetch(w, false)
	case protocol.MsgFetchExReq:
		return cc.ownerFetch(w, true)
	case protocol.MsgInval:
		return cc.sharerInval(w)
	case protocol.MsgInvalAck:
		return cc.homeInvalAck(w)
	case protocol.MsgDataShared, protocol.MsgDataExcl, protocol.MsgOwnerData:
		return cc.requesterData(w)
	case protocol.MsgFetchDone:
		return cc.homeFetchDone(w)
	case protocol.MsgFetchExDone:
		return cc.homeFetchExDone(w)
	case protocol.MsgFetchDataHome:
		return cc.homeFetchData(w)
	case protocol.MsgInterventionMiss:
		return cc.homeInterventionMiss(w)
	case protocol.MsgWriteBack:
		return cc.homeWriteBack(w)
	case protocol.MsgNack:
		return cc.requesterNack(w)
	default:
		panic(fmt.Sprintf("core: unhandled message %v", msg.Type))
	}
}

// homeRead serves a remote node's read request for a local line.
func (cc *Controller) homeRead(w *work) sim.Time {
	msg := w.msg
	line := msg.Line
	if op := cc.homeOps[line]; op != nil {
		return cc.requeue(&op.waiters, w)
	}
	entry, dirExtra := cc.dir.Read(cc.eng.Now(), line)
	r := msg.Requester

	switch entry.State {
	case directory.DirtyRemote:
		if entry.Owner == r && msg.Retry {
			// A retried request finding its own node registered as owner
			// must not park awaiting a write-back: the original request was
			// probably already granted (the grant is in flight), and a
			// write-back may never come. Bounce it; the requester drops the
			// NACK once the grant lands, or backs off and retries.
			return cc.nackRetry(msg, dirExtra)
		}
		op := cc.newHomeOp(homeOp{line: line, requester: r, epoch: msg.Epoch, txn: msg.Txn})
		cc.homeOps[line] = op
		if entry.Owner == r {
			// The requester is the registered owner: its write-back is in
			// flight; wait for it, then reply with the fresh data.
			occ, act := cc.charge(protocol.HRemoteReadHomeDirty, dirExtra, 0)
			cc.spanEngine(w, act, dirExtra)
			cc.spanHome(w, act)
			op.waitWB = true
			op.finalDir = directory.Entry{State: directory.SharedRemote,
				Sharers: directory.Bitmap(0).Set(r)}
			return occ
		}
		occ, act := cc.charge(protocol.HRemoteReadHomeDirty, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		op.intervention = true
		op.finalDir = directory.Entry{State: directory.SharedRemote,
			Sharers: directory.Bitmap(0).Set(entry.Owner).Set(r)}
		cc.send(act, entry.Owner, &protocol.Msg{
			Type: protocol.MsgFetchReq, Line: line, Src: cc.node, Requester: r,
			Epoch: msg.Epoch, Txn: msg.Txn,
		})
		return occ
	case directory.NoRemote, directory.SharedRemote: // clean at home
		occ, act := cc.charge(protocol.HRemoteReadHomeClean, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		op := cc.newHomeOp(homeOp{line: line, requester: r, needData: true, epoch: msg.Epoch,
			txn: msg.Txn})
		op.finalDir = directory.Entry{State: directory.SharedRemote,
			Sharers: entry.Sharers.Set(r)}
		cc.homeOps[line] = op
		cc.fetchForOp(act, op, false)
		return occ
	default:
		panic(fmt.Sprintf("core: remote read of line %#x in unknown directory state %v", line, entry.State))
	}
}

// homeReadEx serves a remote node's read-exclusive request for a local
// line.
func (cc *Controller) homeReadEx(w *work) sim.Time {
	msg := w.msg
	line := msg.Line
	if op := cc.homeOps[line]; op != nil {
		return cc.requeue(&op.waiters, w)
	}
	entry, dirExtra := cc.dir.Read(cc.eng.Now(), line)
	r := msg.Requester
	op := cc.newHomeOp(homeOp{line: line, requester: r, excl: true, epoch: msg.Epoch,
		txn:      msg.Txn,
		finalDir: directory.Entry{State: directory.DirtyRemote, Owner: r}})

	switch entry.State {
	case directory.NoRemote:
		occ, act := cc.charge(protocol.HRemoteReadExHomeUncached, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		op.needData = true
		cc.fetchForOp(act, op, true)
		return occ
	case directory.SharedRemote:
		toInval := entry.Sharers.Clear(r)
		extra := toInval.Count() - 1
		if extra < 0 {
			extra = 0
		}
		occ, act := cc.charge(protocol.HRemoteReadExHomeShared, dirExtra, extra)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		op.acksLeft = toInval.Count()
		op.needData = true
		cc.sendInvals(act, toInval, line)
		cc.fetchForOp(act, op, true)
		return occ
	case directory.DirtyRemote:
		if entry.Owner == r {
			if msg.Retry {
				// See homeRead: a retried request must not park on a
				// write-back that may never come.
				cc.freeOp(op) // never installed
				return cc.nackRetry(msg, dirExtra)
			}
			occ, act := cc.charge(protocol.HRemoteReadExHomeDirty, dirExtra, 0)
			cc.spanEngine(w, act, dirExtra)
			cc.spanHome(w, act)
			cc.homeOps[line] = op
			op.waitWB = true
			return occ
		}
		occ, act := cc.charge(protocol.HRemoteReadExHomeDirty, dirExtra, 0)
		cc.spanEngine(w, act, dirExtra)
		cc.spanHome(w, act)
		cc.homeOps[line] = op
		op.intervention = true
		cc.send(act, entry.Owner, &protocol.Msg{
			Type: protocol.MsgFetchExReq, Line: line, Src: cc.node, Requester: r,
			Epoch: msg.Epoch, Txn: msg.Txn,
		})
		return occ
	default:
		panic(fmt.Sprintf("core: remote readex of line %#x in unknown directory state %v", line, entry.State))
	}
}

// ownerFetch serves an intervention at the (supposed) owner node.
func (cc *Controller) ownerFetch(w *work, exclusive bool) sim.Time {
	msg := w.msg
	line := msg.Line
	home := msg.Src
	if m := cc.mshr[line]; m != nil && (m.filling || m.responseArrived || cc.cfg.Robust) {
		// Our own fill for this line is racing (its data response is on
		// the bus or still in an input queue); process the intervention
		// after the fill lands. Under the robust configuration an
		// intervention can also overtake the grant itself: the previous
		// owner forwards data straight to us while its completion notice
		// travels to the home, so a delayed forward lets the home's next
		// intervention arrive first. The home only intervenes the node
		// its directory names as owner, and the reliable link delivers
		// every grant, so an outstanding miss here always means the data
		// is on its way — answering the bus now would report a spurious
		// InterventionMiss and wedge the home waiting for a write-back.
		return cc.requeue(&m.waiters, w)
	}
	fromHome := msg.Requester == home
	var h protocol.Handler
	switch {
	case exclusive && fromHome:
		h = protocol.HFetchExOwnerFromHome
	case exclusive:
		h = protocol.HFetchExOwnerRemoteReq
	case fromHome:
		h = protocol.HFetchOwnerFromHome
	default:
		h = protocol.HFetchOwnerRemoteReq
	}
	occ, act := cc.charge(h, 0, 0)
	cc.spanEngine(w, act, 0)

	kind := smpbus.Fetch
	if exclusive {
		kind = smpbus.FetchEx
	}
	t := cc.newTxn(kind, line, false, (*Controller).interventionDone)
	t.home, t.requester, t.excl, t.fromHome = home, msg.Requester, exclusive, fromHome
	t.spanID, t.spanEpoch = msg.Txn, msg.Epoch
	cc.eng.At(act, (*issueStep)(t))
	return occ
}

// interventionDone answers an intervention once the owner's bus fetch has
// collected the line: the data goes to the home, or to the requester with
// a completion notice to the home.
func (cc *Controller) interventionDone(t *ccTxn, o smpbus.Outcome) {
	line, home, requester, exclusive := t.Line, t.home, t.requester, t.excl
	spanID, spanEpoch := t.spanID, t.spanEpoch
	switch o.Status {
	case smpbus.NoData:
		cc.send(cc.eng.Now(), home, &protocol.Msg{
			Type: protocol.MsgInterventionMiss, Line: line, Src: cc.node,
		})
	case smpbus.OK:
		cc.tr.SpanEnd(spanID, obs.StageMem, spanEpoch, cc.eng.Now())
		if t.fromHome {
			cc.send(cc.eng.Now(), home, &protocol.Msg{
				Type: protocol.MsgFetchDataHome, Line: line, Src: cc.node,
				Dirty: o.Dirty, Excl: exclusive, Data: o.Data,
				Txn: spanID, Epoch: spanEpoch,
			})
			return
		}
		cc.send(cc.eng.Now(), requester, &protocol.Msg{
			Type: protocol.MsgOwnerData, Line: line, Src: cc.node,
			Requester: requester, Excl: exclusive, Data: o.Data,
			Epoch: spanEpoch, Txn: spanID,
		})
		if exclusive {
			cc.send(cc.eng.Now(), home, &protocol.Msg{
				Type: protocol.MsgFetchExDone, Line: line, Src: cc.node,
			})
		} else {
			cc.send(cc.eng.Now(), home, &protocol.Msg{
				Type: protocol.MsgFetchDone, Line: line, Src: cc.node,
				Dirty: o.Dirty, Data: o.Data,
			})
		}
	default:
		panic(fmt.Sprintf("core: unexpected intervention outcome %+v on line %#x", o, line))
	}
}

// sharerInval invalidates local copies on behalf of the home node.
func (cc *Controller) sharerInval(w *work) sim.Time {
	msg := w.msg
	line := msg.Line
	home := msg.Src
	if m := cc.mshr[line]; m != nil && (m.filling || m.responseArrived) {
		return cc.requeue(&m.waiters, w)
	}
	occ, act := cc.charge(protocol.HInvalAtSharer, 0, 0)
	t := cc.newTxn(smpbus.Inval, line, false, (*Controller).invalDone)
	t.home = home
	cc.eng.At(act, (*issueStep)(t))
	return occ
}

// invalDone acknowledges an invalidation once the local copies are gone.
func (cc *Controller) invalDone(t *ccTxn, _ smpbus.Outcome) {
	cc.send(cc.eng.Now(), t.home, &protocol.Msg{
		Type: protocol.MsgInvalAck, Line: t.Line, Src: cc.node,
	})
}

// homeInvalAck counts an acknowledgement at the home node.
func (cc *Controller) homeInvalAck(w *work) sim.Time {
	msg := w.msg
	op := cc.homeOps[msg.Line]
	if op == nil || op.acksLeft <= 0 {
		panic(fmt.Sprintf("core: stray invalidation ack for line %#x", msg.Line))
	}
	op.acksLeft--
	h := protocol.HInvalAckMore
	if op.acksLeft == 0 {
		if op.requester < 0 {
			h = protocol.HInvalAckLastLocal
		} else {
			h = protocol.HInvalAckLastRemote
		}
	}
	occ, act := cc.charge(h, 0, 0)
	if op.acksLeft == 0 {
		cc.opAt(act, (*Controller).finishIfReady, op)
	}
	return occ
}

// requesterData installs a data response for an outstanding miss. On a
// Robust machine a retried request can legitimately draw more than
// one grant; stray and duplicate responses are counted and dropped instead
// of treated as protocol bugs.
func (cc *Controller) requesterData(w *work) sim.Time {
	msg := w.msg
	m := cc.mshr[msg.Line]
	if cc.cfg.Robust && (m == nil || m.filling || msg.Epoch != m.epoch) {
		occ, _ := cc.charge(protocol.HNackAtRequester, 0, 0)
		cc.st.StrayDrops++
		return occ
	}
	if m == nil {
		panic(fmt.Sprintf("core: data response with no MSHR for line %#x", msg.Line))
	}
	if m.filling {
		panic(fmt.Sprintf("core: duplicate data response for line %#x", msg.Line))
	}
	shared := msg.Type == protocol.MsgDataShared ||
		(msg.Type == protocol.MsgOwnerData && !msg.Excl)
	h := protocol.HDataRespRead
	if !shared {
		h = protocol.HDataRespReadEx
	}
	occ, act := cc.charge(h, 0, 0)
	cc.spanEngine(w, act, 0)
	if m.attempts > 0 {
		cc.st.RetryLat.Add(cc.eng.Now() - m.issuedAt)
	}
	m.data = msg.Data
	m.shared = shared
	cc.mshrAt(act, (*Controller).mshrFill, m)
	return occ
}

// homeFetchDone closes a read forwarded to a remote owner (remote
// requester got its data directly from the owner).
func (cc *Controller) homeFetchDone(w *work) sim.Time {
	msg := w.msg
	op := cc.homeOps[msg.Line]
	if op == nil {
		panic(fmt.Sprintf("core: FetchDone with no home op for line %#x", msg.Line))
	}
	occ, act := cc.charge(protocol.HOwnerWBAtHomeRead, 0, 0)
	if msg.Dirty {
		cc.memoryWrite(act, msg.Line, msg.Data)
	}
	op.intervention = false
	cc.opAt(act, (*Controller).finishIfReadyNoResponse, op)
	return occ
}

// homeFetchExDone closes a read-exclusive forwarded to a remote owner.
func (cc *Controller) homeFetchExDone(w *work) sim.Time {
	msg := w.msg
	op := cc.homeOps[msg.Line]
	if op == nil {
		panic(fmt.Sprintf("core: FetchExDone with no home op for line %#x", msg.Line))
	}
	occ, act := cc.charge(protocol.HOwnerAckAtHome, 0, 0)
	op.intervention = false
	cc.opAt(act, (*Controller).finishIfReadyNoResponse, op)
	return occ
}

// homeFetchData receives owner data when the home itself was the
// requester.
func (cc *Controller) homeFetchData(w *work) sim.Time {
	msg := w.msg
	op := cc.homeOps[msg.Line]
	if op == nil {
		panic(fmt.Sprintf("core: FetchDataHome with no home op for line %#x", msg.Line))
	}
	h := protocol.HOwnerDataAtHomeRead
	if msg.Excl {
		h = protocol.HOwnerDataAtHomeReadEx
	}
	occ, act := cc.charge(h, 0, 0)
	cc.spanEngine(w, act, 0)
	if msg.Dirty && !msg.Excl {
		// The line stays shared: home memory must absorb the dirty data.
		cc.memoryWrite(act, msg.Line, msg.Data)
	}
	op.intervention = false
	op.haveData = true
	op.data = msg.Data
	cc.opAt(act, (*Controller).finishIfReady, op)
	return occ
}

// homeInterventionMiss notes that the owner no longer held the line: its
// write-back is (or was) in flight and carries the data.
func (cc *Controller) homeInterventionMiss(w *work) sim.Time {
	msg := w.msg
	op := cc.homeOps[msg.Line]
	if op == nil {
		panic(fmt.Sprintf("core: InterventionMiss with no home op for line %#x", msg.Line))
	}
	occ, act := cc.charge(protocol.HInterventionMissAtHome, 0, 0)
	op.intervention = false
	op.waitWB = true
	cc.opAt(act, (*Controller).finishIfReady, op)
	return occ
}

// homeWriteBack absorbs an eviction write-back at the home node.
func (cc *Controller) homeWriteBack(w *work) sim.Time {
	msg := w.msg
	line := msg.Line
	occ, act := cc.charge(protocol.HWriteBackAtHome, 0, 0)
	// The arriving data is visible to reads immediately (the home's
	// write-back buffer is snooped); the bus transaction below only
	// models the bandwidth of the actual memory update. Committing the
	// shadow value here closes the window between the directory update
	// and the write-back txn reaching the bus, where a read could
	// otherwise sample stale memory.
	cc.bus.SetMemValue(line, msg.Data)
	cc.memoryWrite(act, line, msg.Data)

	if op := cc.homeOps[line]; op != nil {
		op.wbArrived = true
		op.haveData = true
		op.data = msg.Data
		if op.intervention && msg.Src == op.requester {
			// The requester was granted ownership directly by the old
			// owner and has already written the line back: the op must
			// not retire recording it as dirty owner, or a later request
			// from it would park waiting for a write-back that already
			// came.
			e := directory.Entry{}
			if msg.SharedLeft {
				e = directory.Entry{State: directory.SharedRemote,
					Sharers: directory.Bitmap(0).Set(msg.Src)}
			}
			op.finalDir = e
		}
		cc.opAt(act, (*Controller).finishIfReady, op)
		return occ
	}
	var e directory.Entry
	if msg.SharedLeft {
		e = directory.Entry{State: directory.SharedRemote,
			Sharers: directory.Bitmap(0).Set(msg.Src)}
	}
	cc.dir.Write(cc.eng.Now(), line, e)
	return occ
}

// finishIfReadyNoResponse completes an op whose requester already received
// data directly from the owner: no home data response is sent.
func (cc *Controller) finishIfReadyNoResponse(op *homeOp) {
	if op.finishing || !op.ready() {
		return
	}
	if op.requester >= 0 {
		// Data went owner->requester directly; just retire the op.
		cc.retireOp(op)
		return
	}
	cc.finishOp(op)
}

// memoryWrite updates home memory through a controller-issued bus
// write-back (contends for the bus and the banks, occupies no engine time
// beyond what the handler already charged).
func (cc *Controller) memoryWrite(at sim.Time, line uint64, data uint64) {
	t := cc.newTxn(smpbus.WriteBack, line, true, nil)
	t.Data = data
	cc.eng.At(at, (*issueStep)(t))
}
