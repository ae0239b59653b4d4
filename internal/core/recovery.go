package core

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/obs"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
)

// This file is the requester side of the NACK/retry and timeout recovery
// machinery. All of it is inert unless Config.Robust: no NACK is ever sent
// and no timeout is armed, so fault-free base runs schedule an identical
// event stream (pinned by the golden test in internal/workload).

// requesterNack processes a NACK bounced back by the home: the outstanding
// miss backs off exponentially and re-issues, within the retry budget. A
// NACK that lost its race against a grant for the same episode (or belongs
// to an episode a retry already closed) is dropped.
func (cc *Controller) requesterNack(w *work) sim.Time {
	msg := w.msg
	occ, act := cc.charge(protocol.HNackAtRequester, 0, 0)
	m := cc.mshr[msg.Line]
	if m == nil || m.filling || m.responseArrived || msg.Epoch != m.epoch {
		cc.st.StrayDrops++
		return occ
	}
	cc.st.NacksRecv++
	cc.spanEngine(w, act, 0)
	cc.tr.SpanBegin(m.parked.Attr, obs.StageBackoff, m.epoch, act)
	cc.noteAttempt(m, "NACKed")
	cc.mshrAtAfter(act, nackBackoff(m.attempts), (*Controller).reissue, m)
	return occ
}

// RetryBudgetError is the fail-stop condition of the recovery machinery: a
// line exhausted its NACK/timeout retry budget, meaning a NACK storm or a
// transaction lost beyond the link layer's recovery. It is thrown as a
// panic value (the simulation cannot continue without livelocking
// silently) so that harnesses which recover sweeps — internal/chaos,
// internal/serve — can classify the failure as pathological-scenario
// rather than a transient fault, and record it machine-readably in the
// ccnuma-run/v1 artifact instead of as a bare string.
type RetryBudgetError struct {
	Node     int
	Line     uint64
	Attempts int
	// LastEvent names the event that consumed the final attempt ("NACKed"
	// or "timed out"); At is the simulated time it fired.
	LastEvent string
	At        sim.Time
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf(
		"core: node %d line %#x exhausted its retry budget (%d attempts, last %s at t=%d): NACK storm or lost transaction",
		e.Node, e.Line, e.Attempts, e.LastEvent, e.At)
}

// noteAttempt charges one retry against the episode's budget. Exhausting
// the budget is a fail-stop condition: the line is unserviceable (a NACK
// storm or a transaction lost beyond the link layer's recovery), and
// continuing would livelock silently.
func (cc *Controller) noteAttempt(m *mshrEntry, why string) {
	m.attempts++
	if m.attempts > config.RobustRetryBudget {
		panic(&RetryBudgetError{
			Node: cc.node, Line: m.line, Attempts: m.attempts,
			LastEvent: why, At: cc.eng.Now(),
		})
	}
}

// nackBackoff returns the delay before re-issue number `attempts`: the base
// RobustNackDelay doubled per consecutive failure, capped at
// RobustNackBackoffMax.
func nackBackoff(attempts int) sim.Time {
	d := config.RobustNackDelay
	for i := 1; i < attempts; i++ {
		d <<= 1
		if d >= config.RobustNackBackoffMax {
			return config.RobustNackBackoffMax
		}
	}
	return d
}

// reissue re-sends the episode's request (marked Retry, same epoch) unless
// a response has arrived in the meantime.
func (cc *Controller) reissue(m *mshrEntry) {
	line := m.line
	if m.filling || m.responseArrived {
		return
	}
	cc.st.Retries++
	cc.tr.SpanEnd(m.parked.Attr, obs.StageBackoff, m.epoch, cc.eng.Now())
	mt := protocol.MsgReadReq
	if m.excl {
		mt = protocol.MsgReadExReq
	}
	cc.send(cc.eng.Now(), cc.space.Home(line), &protocol.Msg{
		Type: mt, Line: line, Src: cc.node, Requester: cc.node,
		Retry: true, Epoch: m.epoch, Txn: m.parked.Attr,
	})
	cc.armTimeout(m)
}

// armTimeout schedules the episode's request timeout on the entry's timer,
// bound on the entry's first timeout. A re-issue arms a new one, and only
// the last timeout armed is live (see mshrEntry.timeouts), so exactly one
// timeout is live per episode. A timeout holds neither its entry nor a
// cont: the entry recycles at its fill, and a stale timeout finds a later
// timeout armed after it, or finds the entry no longer in mshr.
func (cc *Controller) armTimeout(m *mshrEntry) {
	if !cc.cfg.Robust {
		return
	}
	if m.timeoutFn == nil {
		m.timeoutFn = func() { cc.timeout(m) }
	}
	m.timeouts++
	cc.eng.At(cc.eng.Now()+config.RobustRequestTimeout, m.timeoutFn)
}

// timeout re-issues the episode's request if this is its live timeout and
// no response has arrived.
func (cc *Controller) timeout(m *mshrEntry) {
	m.timeouts--
	if m.timeouts > 0 || cc.mshr[m.line] != m || m.filling || m.responseArrived {
		return
	}
	cc.st.Timeouts++
	cc.tr.SpanBegin(m.parked.Attr, obs.StageBackoff, m.epoch, cc.eng.Now())
	cc.noteAttempt(m, "timed out")
	cc.reissue(m)
}

// nackRetry bounces a retried home-bound request that must not join the
// current directory transient (the home saw the requester registered as
// dirty owner: the original request was probably already granted).
func (cc *Controller) nackRetry(msg *protocol.Msg, dirExtra sim.Time) sim.Time {
	h := protocol.HRemoteReadHomeDirty
	if msg.Type == protocol.MsgReadExReq {
		h = protocol.HRemoteReadExHomeDirty
	}
	occ, act := cc.charge(h, dirExtra, 0)
	cc.st.NacksSent++
	cc.send(act, msg.Requester, &protocol.Msg{
		Type: protocol.MsgNack, Line: msg.Line, Src: cc.node,
		Requester: msg.Requester, Excl: msg.Type == protocol.MsgReadExReq,
		Epoch: msg.Epoch, Txn: msg.Txn,
	})
	return occ
}
