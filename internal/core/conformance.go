package core

import "ccnuma/internal/protocol"

// ConformanceHook observes every handler dispatch and every network send a
// controller performs, in terms of the trigger/handler vocabulary of the
// statically extracted protocol model (internal/extract). The model
// conformance harness (internal/model) attaches one to replay concrete
// simulator transitions through the abstract transition table; a nil hook
// costs a single pointer check per dispatch and send.
type ConformanceHook interface {
	// Dispatch fires when a handler is charged: trigger is the queued work
	// that was dispatched ("msg:<Type>" or "bus:<Kind>/local|remote") and h
	// the handler the controller selected for it.
	Dispatch(node int, trigger string, h protocol.Handler)
	// Send fires for every outgoing network message. inDispatch reports
	// whether the send happened synchronously under a handler dispatch (in
	// which case trigger/h identify it); asynchronous sends (bus-completion
	// closures, deferred finishes, the NI NACK bounce, and the direct
	// write-back data path) carry inDispatch == false.
	Send(node int, inDispatch bool, trigger string, h protocol.Handler, t protocol.MsgType)
}

// SetConformanceHook attaches (or with nil detaches) the conformance
// observer.
func (cc *Controller) SetConformanceHook(h ConformanceHook) { cc.hook = h }

// ForceNackNext arms a one-shot NI fault: the next n NACKable requests
// arriving at this controller are bounced as if the request queue were
// full, exercising the real NACK/backoff/retry path regardless of queue
// occupancy. It is a deterministic injection seam for the single-fault
// sweep's "nack" class and is inert unless Config.Robust: a machine
// without the recovery layer never bounces a request.
func (cc *Controller) ForceNackNext(n int) { cc.forceNack += n }

// trigger names w in the extracted model's trigger vocabulary.
func (w *work) trigger() string {
	if w.txn != nil {
		if w.txn.HomeLocal {
			return "bus:" + w.txn.Kind.String() + "/local"
		}
		return "bus:" + w.txn.Kind.String() + "/remote"
	}
	return "msg:" + w.msg.Type.String()
}
