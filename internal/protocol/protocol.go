// Package protocol defines the coherence protocol shared by all four
// controller architectures: the network message vocabulary, the protocol
// handler set of the paper's Table 4, and each handler's sub-operation
// sequence, from which handler occupancies for HWC and PPC engines are
// computed (Table 2 costs). The protocol is the paper's: full-bit-map
// directory, invalidation-based, write-back, sequentially consistent;
// remote owners respond directly to remote requesters with data, and
// invalidation acknowledgements are collected at the home node.
package protocol

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/sim"
)

// MsgType enumerates the network messages.
type MsgType int

const (
	// MsgReadReq: requester CC -> home, read a shared copy.
	MsgReadReq MsgType = iota
	// MsgReadExReq: requester CC -> home, read an exclusive copy.
	MsgReadExReq
	// MsgFetchReq: home -> dirty owner, retrieve the line for a read;
	// Requester identifies the final destination of the data.
	MsgFetchReq
	// MsgFetchExReq: home -> dirty owner, retrieve and invalidate for an
	// exclusive request.
	MsgFetchExReq
	// MsgInval: home -> sharer, invalidate local copies.
	MsgInval
	// MsgInvalAck: sharer -> home.
	MsgInvalAck
	// MsgDataShared: home -> requester, line data, install Shared.
	MsgDataShared
	// MsgDataExcl: home -> requester, line data, install Modified.
	MsgDataExcl
	// MsgOwnerData: owner -> remote requester, line data delivered
	// directly (Excl selects shared/exclusive install).
	MsgOwnerData
	// MsgFetchDone: owner -> home after a Fetch; carries the line when
	// Dirty so the home can update memory and always ends the home's
	// transient state ("write back from owner to home in response to a
	// read request from a remote node").
	MsgFetchDone
	// MsgFetchExDone: owner -> home after a FetchEx for a remote
	// requester; ownership-transfer acknowledgement without data.
	MsgFetchExDone
	// MsgFetchDataHome: owner -> home when the home itself is the
	// requester; carries the line.
	MsgFetchDataHome
	// MsgInterventionMiss: owner -> home; the fetch found no cached copy
	// (the owner's write-back crossed the intervention in flight).
	MsgInterventionMiss
	// MsgWriteBack: evicting node -> home; dirty line data, sent through
	// the direct data path. SharedLeft reports that the evicting node
	// still holds clean copies of the line.
	MsgWriteBack
	// MsgNack: home -> requester; the home's request queue was full (or a
	// retried request hit a transient it must not join), so the request was
	// bounced without being serviced. The requester backs off and re-issues.
	// Only ReadReq/ReadExReq are ever NACKed: forwarded interventions,
	// invalidations, and all responses travel on guaranteed channels, which
	// is what keeps the NACK protocol itself deadlock-free.
	MsgNack

	numMsgTypes
)

var msgNames = [...]string{
	"ReadReq", "ReadExReq", "FetchReq", "FetchExReq", "Inval", "InvalAck",
	"DataShared", "DataExcl", "OwnerData", "FetchDone", "FetchExDone",
	"FetchDataHome", "InterventionMiss", "WriteBack", "Nack",
}

func (t MsgType) String() string {
	if t >= 0 && int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// NumMsgTypes is the number of message types.
const NumMsgTypes = int(numMsgTypes)

// Msg is one protocol message.
type Msg struct {
	Type MsgType
	Line uint64
	Src  int // sending node
	// Requester is the node that should ultimately receive data for
	// forwarded requests (Fetch/FetchEx), and the original requester for
	// data responses.
	Requester int
	// Excl marks OwnerData as an exclusive (read-exclusive) response.
	Excl bool
	// Dirty marks FetchDone/FetchDataHome data as dirty (home must write
	// memory).
	Dirty bool
	// SharedLeft on WriteBack: the evicting node retains clean copies.
	SharedLeft bool
	// Retry marks a ReadReq/ReadExReq re-issued after a NACK or a request
	// timeout. The home must treat it idempotently: the original request may
	// already have been serviced, so a retry that finds the requester listed
	// as the dirty owner is NACKed instead of parked awaiting a write-back.
	Retry bool
	// Epoch tags a request episode at the requester (one MSHR lifetime).
	// The home echoes it in grants and NACKs so the requester can discard
	// responses that belong to an episode a retried request has already
	// closed. It rides along at zero timing cost and is only consulted
	// on a Robust machine.
	Epoch uint32
	// Data is the cache-line value carried by data-bearing messages. The
	// simulator models one shadow word per line (enough to detect stale
	// reads and lost write-backs); it rides along with the timing model at
	// zero cost and is checked by the protocol checker's replays.
	Data uint64
	// Txn is the causal-span transaction ID of the miss episode this
	// message serves (zero for untracked traffic: fan-out invalidations,
	// completion acks, write-backs). Like Epoch and Data it rides along at
	// zero timing cost; it is only consulted when attribution is on.
	Txn uint64
}

// CarriesData reports whether the message includes a full cache line (and
// therefore occupies data-size flits on the network).
func (m *Msg) CarriesData() bool {
	switch m.Type {
	case MsgDataShared, MsgDataExcl, MsgOwnerData, MsgFetchDataHome, MsgWriteBack:
		return true
	case MsgFetchDone:
		return m.Dirty
	case MsgReadReq, MsgReadExReq, MsgFetchReq, MsgFetchExReq, MsgInval,
		MsgInvalAck, MsgFetchExDone, MsgInterventionMiss, MsgNack:
		return false
	default:
		panic(fmt.Sprintf("protocol: CarriesData on unknown message %v", m.Type))
	}
}

// Nackable reports whether a full input queue may bounce this message back
// to its requester. Only home-bound read/read-exclusive requests qualify;
// everything else rides a guaranteed channel (see MsgNack).
func (m *Msg) Nackable() bool {
	return m.Type == MsgReadReq || m.Type == MsgReadExReq
}

// IsResponse reports whether the message belongs in the controller's
// network-side response queue (highest dispatch priority: these are the
// transactions nearest to completion).
func (m *Msg) IsResponse() bool {
	switch m.Type {
	case MsgDataShared, MsgDataExcl, MsgOwnerData, MsgFetchDone,
		MsgFetchExDone, MsgFetchDataHome, MsgInvalAck, MsgInterventionMiss,
		MsgNack:
		return true
	case MsgReadReq, MsgReadExReq, MsgFetchReq, MsgFetchExReq, MsgInval,
		MsgWriteBack:
		return false
	default:
		panic(fmt.Sprintf("protocol: IsResponse on unknown message %v", m.Type))
	}
}

// TraceName lets the network's tracer label this payload (obs.TraceDescriber).
func (m *Msg) TraceName() string { return m.Type.String() }

// TraceLine reports the cache line for tracing (obs.TraceDescriber).
func (m *Msg) TraceLine() uint64 { return m.Line }

// SpanTxn exposes the message's transaction ID and episode epoch for span
// checkpointing (obs.TraceDescriber).
func (m *Msg) SpanTxn() (uint64, uint32) { return m.Txn, m.Epoch }

// Flits returns the network occupancy of the message under cfg.
func (m *Msg) Flits(cfg *config.Config) int {
	if m.CarriesData() {
		return cfg.LineDataFlits()
	}
	return cfg.ControlFlits()
}

// Handler identifies a protocol handler (the rows of Table 4, plus the few
// bookkeeping handlers the table omits).
type Handler int

const (
	// HBusReadRemote: local processor read miss to a remote line.
	HBusReadRemote Handler = iota
	// HBusReadExRemote: local processor write miss to a remote line.
	HBusReadExRemote
	// HBusReadLocalDirtyRemote: local read of a local line dirty in a
	// remote node.
	HBusReadLocalDirtyRemote
	// HBusReadExLocalCachedRemote: local read-exclusive of a local line
	// cached (shared) in remote nodes.
	HBusReadExLocalCachedRemote
	// HBusReadExLocalDirtyRemote: local read-exclusive of a local line
	// dirty in a remote node.
	HBusReadExLocalDirtyRemote
	// HRemoteReadHomeClean: read request arriving at home, line clean.
	HRemoteReadHomeClean
	// HRemoteReadHomeDirty: read request arriving at home, line dirty at
	// a third node (forward).
	HRemoteReadHomeDirty
	// HRemoteReadExHomeUncached: read-exclusive at home, no remote copies.
	HRemoteReadExHomeUncached
	// HRemoteReadExHomeShared: read-exclusive at home, remote sharers to
	// invalidate.
	HRemoteReadExHomeShared
	// HRemoteReadExHomeDirty: read-exclusive at home, dirty at a third
	// node (forward).
	HRemoteReadExHomeDirty
	// HFetchOwnerFromHome: fetch (read) at the owner, home is requester.
	HFetchOwnerFromHome
	// HFetchOwnerRemoteReq: fetch (read) at the owner, remote requester.
	HFetchOwnerRemoteReq
	// HFetchExOwnerFromHome: fetch-exclusive at the owner, home is
	// requester.
	HFetchExOwnerFromHome
	// HFetchExOwnerRemoteReq: fetch-exclusive at the owner, remote
	// requester.
	HFetchExOwnerRemoteReq
	// HOwnerDataAtHomeRead: data response from owner arriving at home
	// (home was the requester of a read).
	HOwnerDataAtHomeRead
	// HOwnerWBAtHomeRead: sharing write-back from owner arriving at home
	// closing a remote-requester read.
	HOwnerWBAtHomeRead
	// HOwnerDataAtHomeReadEx: data response from owner arriving at home
	// (home was the requester of a read-exclusive).
	HOwnerDataAtHomeReadEx
	// HOwnerAckAtHome: ownership-transfer ack from owner arriving at home
	// closing a remote-requester read-exclusive.
	HOwnerAckAtHome
	// HInvalAtSharer: invalidation request arriving at a sharer.
	HInvalAtSharer
	// HInvalAckMore: invalidation ack at home, more outstanding.
	HInvalAckMore
	// HInvalAckLastLocal: last invalidation ack at home, local requester.
	HInvalAckLastLocal
	// HInvalAckLastRemote: last invalidation ack at home, remote
	// requester.
	HInvalAckLastRemote
	// HDataRespRead: data response arriving at the requester (read).
	HDataRespRead
	// HDataRespReadEx: data response arriving at the requester
	// (read-exclusive).
	HDataRespReadEx
	// HWriteBackAtHome: eviction write-back arriving at home.
	HWriteBackAtHome
	// HInterventionMissAtHome: intervention-miss notice arriving at home.
	HInterventionMissAtHome
	// HBusyRequeue: a request dequeued while its line is in a transient
	// state; checked and parked on the waiter list.
	HBusyRequeue
	// HNackAtRequester: a NACK (or a stray/duplicate response a retried
	// request has made possible) arriving back at the requester; checked
	// against the MSHR and either scheduled for backed-off re-issue or
	// dropped.
	HNackAtRequester

	numHandlers
)

var handlerNames = [...]string{
	"bus read remote",
	"bus read exclusive remote",
	"bus read local (dirty remote)",
	"bus read excl. local (cached remote)",
	"bus read excl. local (dirty remote)",
	"remote read to home (clean)",
	"remote read to home (dirty remote)",
	"remote read excl. to home (uncached remote)",
	"remote read excl. to home (shared remote)",
	"remote read excl. to home (dirty remote)",
	"read from remote owner (request from home)",
	"read from remote owner (remote requester)",
	"read excl. from remote owner (request from home)",
	"read excl. from remote owner (remote requester)",
	"data response from owner to a read request from home",
	"write back from owner to home in response to a read req. from remote node",
	"data response from owner to a read excl. request from home",
	"ack. from owner to home in response to a read excl. request from remote node",
	"invalidation request from home to sharer",
	"inv. acknowledgment (more expected)",
	"inv. ack. (last ack, local request)",
	"inv. ack. (last ack, remote request)",
	"data in response to a remote read request",
	"data in response to a remote read excl. request",
	"write back from owner to home (eviction)",
	"intervention miss notice at home",
	"busy-line requeue",
	"nack or stray response at requester",
}

func (h Handler) String() string {
	if h >= 0 && int(h) < len(handlerNames) {
		return handlerNames[h]
	}
	return fmt.Sprintf("Handler(%d)", int(h))
}

// NumHandlers is the number of handler kinds.
const NumHandlers = int(numHandlers)

// Table4Handlers lists the handlers that appear in the paper's Table 4, in
// its row order.
var Table4Handlers = []Handler{
	HBusReadRemote, HBusReadExRemote, HBusReadLocalDirtyRemote,
	HBusReadExLocalCachedRemote, HRemoteReadHomeClean, HRemoteReadHomeDirty,
	HRemoteReadExHomeUncached, HRemoteReadExHomeShared, HRemoteReadExHomeDirty,
	HFetchOwnerFromHome, HFetchOwnerRemoteReq, HFetchExOwnerFromHome,
	HFetchExOwnerRemoteReq, HOwnerDataAtHomeRead, HOwnerWBAtHomeRead,
	HOwnerDataAtHomeReadEx, HOwnerAckAtHome, HInvalAtSharer, HInvalAckMore,
	HInvalAckLastLocal, HInvalAckLastRemote, HDataRespRead, HDataRespReadEx,
}

// sequences gives each handler's fixed sub-operation sequence. Handlers
// with per-sharer work (invalidation fan-out) charge the extra sub-ops
// separately via PerInvalOps. Dispatch (OpDispatch) is charged by the
// engine, not listed here.
var sequences = [numHandlers][]config.SubOp{
	HBusReadRemote: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpBitField,
		config.OpSendHeader,
	},
	HBusReadExRemote: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpBitField,
		config.OpSendHeader,
	},
	HBusReadLocalDirtyRemote: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpBitField, config.OpSendHeader, config.OpDirCacheWrite,
	},
	HBusReadExLocalCachedRemote: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpBitField, config.OpWriteBusReg, config.OpDirCacheWrite,
	},
	HBusReadExLocalDirtyRemote: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpBitField, config.OpSendHeader, config.OpDirCacheWrite,
	},
	HRemoteReadHomeClean: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpWriteBusReg, config.OpStartDataXfer, config.OpBitField,
		config.OpDirCacheWrite,
	},
	HRemoteReadHomeDirty: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpBitField, config.OpSendHeader, config.OpDirCacheWrite,
	},
	HRemoteReadExHomeUncached: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpWriteBusReg, config.OpStartDataXfer, config.OpBitField,
		config.OpDirCacheWrite,
	},
	HRemoteReadExHomeShared: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpWriteBusReg, config.OpBitField, config.OpDirCacheWrite,
	},
	HRemoteReadExHomeDirty: {
		config.OpLatchHeader, config.OpDirCacheRead, config.OpCondition,
		config.OpBitField, config.OpSendHeader, config.OpDirCacheWrite,
	},
	HFetchOwnerFromHome: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpStartDataXfer,
	},
	HFetchOwnerRemoteReq: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpStartDataXfer, config.OpSendHeader,
	},
	HFetchExOwnerFromHome: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpStartDataXfer,
	},
	HFetchExOwnerRemoteReq: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpStartDataXfer, config.OpSendHeader,
	},
	HOwnerDataAtHomeRead: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpWriteBusReg,
		config.OpStartDataXfer, config.OpDirCacheWrite, config.OpBitField,
	},
	HOwnerWBAtHomeRead: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpCondition,
		config.OpWriteBusReg, config.OpDirCacheWrite, config.OpBitField,
	},
	HOwnerDataAtHomeReadEx: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpWriteBusReg,
		config.OpStartDataXfer, config.OpDirCacheWrite, config.OpBitField,
	},
	HOwnerAckAtHome: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpCondition,
		config.OpDirCacheWrite, config.OpBitField,
	},
	HInvalAtSharer: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpSendHeader,
	},
	HInvalAckMore: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpBitField,
		config.OpCondition,
	},
	HInvalAckLastLocal: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpBitField,
		config.OpCondition, config.OpWriteBusReg, config.OpDirCacheWrite,
	},
	HInvalAckLastRemote: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpBitField,
		config.OpCondition, config.OpStartDataXfer, config.OpDirCacheWrite,
	},
	HDataRespRead: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpWriteBusReg,
		config.OpStartDataXfer,
	},
	HDataRespReadEx: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpWriteBusReg,
		config.OpStartDataXfer,
	},
	HWriteBackAtHome: {
		config.OpLatchHeader, config.OpCondition, config.OpWriteBusReg,
		config.OpDirCacheWrite, config.OpBitField,
	},
	HInterventionMissAtHome: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpCondition,
		config.OpBitField,
	},
	HBusyRequeue: {
		config.OpLatchHeader, config.OpCondition, config.OpBitField,
	},
	HNackAtRequester: {
		config.OpLatchHeader, config.OpAssocSearch, config.OpCondition,
	},
}

// PerInvalOps is charged once per invalidation sent by the fan-out
// handlers (extract next sharer from the bit map, compose and send the
// message header).
var PerInvalOps = []config.SubOp{config.OpBitField, config.OpSendHeader}

// Occupancy returns the no-contention occupancy of handler h on engine
// kind k, excluding dispatch (charge OpDispatch separately) and assuming a
// directory-cache hit. extraInvals counts invalidations sent beyond the
// handler's base sequence.
func Occupancy(costs *config.CostTable, k config.EngineKind, h Handler, extraInvals int) sim.Time {
	var t sim.Time
	for _, op := range sequences[h] {
		t += costs.Cost(k, op)
	}
	for i := 0; i < extraInvals; i++ {
		for _, op := range PerInvalOps {
			t += costs.Cost(k, op)
		}
	}
	return t
}

// Sequence returns a copy of the handler's sub-operation sequence (for
// reports).
func Sequence(h Handler) []config.SubOp {
	seq := sequences[h]
	out := make([]config.SubOp, len(seq))
	copy(out, seq)
	return out
}

// PrefixOccupancy returns the occupancy of the first n sub-operations of
// handler h: the latency-critical prefix through which the handler's
// externally visible action (bus request, network send) is issued. The
// remaining sub-operations (directory update, bookkeeping) are postponed
// until after the response, as the paper's handlers do.
func PrefixOccupancy(costs *config.CostTable, k config.EngineKind, h Handler, n int) sim.Time {
	seq := sequences[h]
	if n > len(seq) {
		n = len(seq)
	}
	var t sim.Time
	for _, op := range seq[:n] {
		t += costs.Cost(k, op)
	}
	return t
}

// StallKind classifies the bus/memory access a handler performs while the
// protocol engine waits (the paper's handler occupancies include "SMP bus
// and local memory access times").
type StallKind int

const (
	// StallNone: the handler issues messages only.
	StallNone StallKind = iota
	// StallHomeFetch: the handler fetches the line from home memory (or
	// the home node's caches) over the local SMP bus.
	StallHomeFetch
	// StallOwnerFetch: the handler retrieves the line from the owner
	// node's caches via a cache-to-cache bus transfer.
	StallOwnerFetch
)

// String names the stall class.
func (k StallKind) String() string {
	switch k {
	case StallNone:
		return "none"
	case StallHomeFetch:
		return "home-fetch"
	case StallOwnerFetch:
		return "owner-fetch"
	default:
		panic(fmt.Sprintf("protocol: unknown stall kind %d", int(k)))
	}
}

// Stall returns the bus/memory stall class of handler h (for the common
// case; state-dependent fallback paths charge their own).
func Stall(h Handler) StallKind {
	switch h {
	case HRemoteReadHomeClean, HRemoteReadExHomeUncached, HRemoteReadExHomeShared:
		return StallHomeFetch
	case HFetchOwnerFromHome, HFetchOwnerRemoteReq, HFetchExOwnerFromHome, HFetchExOwnerRemoteReq:
		return StallOwnerFetch
	case HBusReadRemote, HBusReadExRemote, HBusReadLocalDirtyRemote,
		HBusReadExLocalCachedRemote, HBusReadExLocalDirtyRemote,
		HRemoteReadHomeDirty, HRemoteReadExHomeDirty,
		HOwnerDataAtHomeRead, HOwnerWBAtHomeRead, HOwnerDataAtHomeReadEx,
		HOwnerAckAtHome, HInvalAtSharer, HInvalAckMore, HInvalAckLastLocal,
		HInvalAckLastRemote, HDataRespRead, HDataRespReadEx,
		HWriteBackAtHome, HInterventionMissAtHome, HBusyRequeue,
		HNackAtRequester:
		return StallNone
	default:
		panic(fmt.Sprintf("protocol: Stall on unknown handler %v", h))
	}
}

// StallTime returns the no-contention engine stall for a stall class under
// cfg: the bus arbitration plus data delivery to the controller's
// interface. Contention beyond this is modelled (and paid) at the bus and
// memory banks themselves.
func StallTime(cfg *config.Config, k StallKind) sim.Time {
	switch k {
	case StallHomeFetch:
		return cfg.BusArb + cfg.MemAccess + cfg.CriticalQuad
	case StallOwnerFetch:
		return cfg.BusArb + cfg.CacheToCache + cfg.CriticalQuad
	case StallNone:
		return 0
	default:
		panic(fmt.Sprintf("protocol: unknown stall kind %d", int(k)))
	}
}

// ActionIndex returns the index into h's sequence *after* which the
// handler's external action (bus transaction or network send) is
// considered issued; PrefixOccupancy(costs, k, h, ActionIndex(h)) is the
// dispatch-to-action latency.
func ActionIndex(h Handler) int {
	seq := sequences[h]
	// The action is issued by the last OpWriteBusReg / OpSendHeader /
	// OpStartDataXfer before any trailing bookkeeping; scanning from the
	// end, find the last action op.
	for i := len(seq) - 1; i >= 0; i-- {
		switch seq[i] {
		case config.OpWriteBusReg, config.OpSendHeader, config.OpStartDataXfer:
			return i + 1
		}
	}
	return len(seq)
}
