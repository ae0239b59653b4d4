// Package model is the explicit-state checker over the statically
// extracted protocol model (internal/extract). It explores an abstract
// nodes × lines machine — directory, caches, pending-operation mirrors,
// and an unordered bounded message pool with NACK/backoff edges — using
// 64-bit hash compaction for the visited set and a per-line
// partial-order reduction, and checks the same single-owner /
// stale-read / lost-writeback / deadlock invariants as the replays of the
// real stack (internal/verify) but at node counts they cannot reach. Every transition
// the machine takes is labeled with the (trigger, handler) pair of the
// concrete dispatch it abstracts and checked for admission against the
// extracted rule table, so the hand-written abstraction cannot drift
// from the implementation without a reported unmodeled transition.
package model

import (
	"fmt"

	"ccnuma/internal/protocol"
)

// Abstract machine bounds. These are compile-time capacities, not the
// checked configuration (Config picks the live sizes). The message pool
// is capped PER LINE, with the global array sized so the per-line cap is
// the only one that can bind: the partial-order reduction relies on
// actions of different lines being independent, which a shared global
// capacity would break (one line filling the pool could disable another
// line's sends).
const (
	maxNodes = 8
	maxLines = 4
	msgCap   = 10
	maxMsgs  = maxLines * msgCap
)

// Cache states of the abstract single-proc node.
const (
	cInv uint8 = iota
	cShared
	cMod
)

// Directory states, mirroring directory.State.
const (
	dNone uint8 = iota
	dShared
	dDirty
)

// MSHR kinds of the abstract remote-request tracker.
const (
	mNone uint8 = iota
	mRead
	mReadEx
)

// msg is one in-flight network message. The pool is an unordered
// multiset (the abstraction admits every delivery order).
type msg struct {
	typ   protocol.MsgType
	line  int8
	src   int8
	dst   int8
	req   int8 // requester (-1 = home-local)
	excl  bool
	fresh bool // payload carries the current value
	retry bool
}

// homeOp mirrors the concrete controller's pending home-side operation
// for one line (at most one, matching the homeOps conflict requeue).
type homeOp struct {
	active    bool
	requester int8 // -1 = local processor at home
	excl      bool
	acksLeft  int8
	waitWB    bool // requester is the dirty owner; wait for its write-back
	fetch     bool // intervention outstanding at the owner
	needMem   bool // intervention missed; grant from memory when it is safe
	// reqWroteBack: the requester received ownership directly from the
	// old owner and already wrote the line back while this op was still
	// waiting for the owner's completion; the op must not retire
	// recording the requester as dirty owner.
	reqWroteBack bool
}

// mshrEntry mirrors the concrete remote-side request tracker.
type mshrEntry struct {
	kind     uint8
	backoff  bool // NACKed, reissue pending
	attempts uint8
}

// lineState is the full abstract state of one line.
type lineState struct {
	dirState uint8
	sharers  uint8 // bitmask of remote sharers
	owner    int8
	memFresh bool // home memory holds the current value
	op       homeOp
	cache    [maxNodes]uint8
	fresh    [maxNodes]bool
	mshr     [maxNodes]mshrEntry
}

// state is one explored global state. It is a comparable value type:
// the message pool is kept sorted so equal multisets encode equally.
type state struct {
	lines [maxLines]lineState
	msgs  [maxMsgs]msg
	nmsgs uint8
}

// Config sizes and shapes one exploration.
type Config struct {
	Nodes int
	Lines int
	// Robust enables the finite-buffer edges: at every request delivery
	// the home may instead bounce a NACK (modeling a full NI queue), and
	// requesters back off and reissue with the retry bit set.
	Robust bool
	// MaxAttempts caps NACK bounces per outstanding request so the
	// NACK/retry cycle stays finite (matching the concrete retry budget).
	MaxAttempts int
	// MaxStates bounds the exploration; 0 means the package default.
	MaxStates int
	// POR enables the per-line partial-order reduction.
	POR bool
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Lines == 0 {
		c.Lines = 1
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 4_000_000
	}
	return c
}

func (c Config) validate() error {
	if c.Nodes < 2 || c.Nodes > maxNodes {
		return fmt.Errorf("model: Nodes must be in [2,%d], got %d", maxNodes, c.Nodes)
	}
	if c.Lines < 1 || c.Lines > maxLines {
		return fmt.Errorf("model: Lines must be in [1,%d], got %d", maxLines, c.Lines)
	}
	return nil
}

// home maps a line to its home node (block-cyclic, like the simulator's
// default space layout).
func (c Config) home(line int) int { return line % c.Nodes }

// initial is the reset state: all caches invalid, directories empty,
// memory fresh.
func (c Config) initial() state {
	var s state
	for l := 0; l < c.Lines; l++ {
		s.lines[l].owner = -1
		s.lines[l].memFresh = true
	}
	return s
}

// ---- message pool ----------------------------------------------------------

func msgLess(a, b msg) bool {
	if a.typ != b.typ {
		return a.typ < b.typ
	}
	if a.line != b.line {
		return a.line < b.line
	}
	if a.src != b.src {
		return a.src < b.src
	}
	if a.dst != b.dst {
		return a.dst < b.dst
	}
	if a.req != b.req {
		return a.req < b.req
	}
	if a.excl != b.excl {
		return b.excl
	}
	if a.fresh != b.fresh {
		return b.fresh
	}
	if a.retry != b.retry {
		return b.retry
	}
	return false
}

// push inserts a message keeping the pool sorted; it reports false when
// the message's line is at its pool cap (the action that needed it is
// then not enabled).
func (s *state) push(m msg) bool {
	inLine := 0
	for i := 0; i < int(s.nmsgs); i++ {
		if s.msgs[i].line == m.line {
			inLine++
		}
	}
	if inLine >= msgCap || int(s.nmsgs) >= maxMsgs {
		return false
	}
	i := int(s.nmsgs)
	for i > 0 && msgLess(m, s.msgs[i-1]) {
		s.msgs[i] = s.msgs[i-1]
		i--
	}
	s.msgs[i] = m
	s.nmsgs++
	return true
}

// drop removes the message at index i, keeping the pool sorted.
func (s *state) drop(i int) {
	for j := i; j < int(s.nmsgs)-1; j++ {
		s.msgs[j] = s.msgs[j+1]
	}
	s.nmsgs--
	s.msgs[s.nmsgs] = msg{}
}

// ---- hashing ---------------------------------------------------------------

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnv1a(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvBool(h uint64, v bool) uint64 {
	if v {
		return fnv1a(h, 1)
	}
	return fnv1a(h, 0)
}

// hash compacts the state to 64 bits (FNV-1a over a canonical field
// walk). The visited set stores only this hash — the classic
// hash-compaction trade: a collision can hide states, which is accepted
// for the scale it buys.
func (s *state) hash(c Config) uint64 {
	h := uint64(fnvOffset)
	for l := 0; l < c.Lines; l++ {
		ls := &s.lines[l]
		h = fnv1a(h, ls.dirState)
		h = fnv1a(h, ls.sharers)
		h = fnv1a(h, byte(ls.owner))
		h = fnvBool(h, ls.memFresh)
		op := &ls.op
		h = fnvBool(h, op.active)
		h = fnv1a(h, byte(op.requester))
		h = fnvBool(h, op.excl)
		h = fnv1a(h, byte(op.acksLeft))
		h = fnvBool(h, op.waitWB)
		h = fnvBool(h, op.fetch)
		h = fnvBool(h, op.needMem)
		h = fnvBool(h, op.reqWroteBack)
		for n := 0; n < c.Nodes; n++ {
			h = fnv1a(h, ls.cache[n])
			h = fnvBool(h, ls.fresh[n])
			h = fnv1a(h, ls.mshr[n].kind)
			h = fnvBool(h, ls.mshr[n].backoff)
			h = fnv1a(h, ls.mshr[n].attempts)
		}
	}
	h = fnv1a(h, s.nmsgs)
	for i := 0; i < int(s.nmsgs); i++ {
		m := &s.msgs[i]
		h = fnv1a(h, byte(m.typ))
		h = fnv1a(h, byte(m.line))
		h = fnv1a(h, byte(m.src))
		h = fnv1a(h, byte(m.dst))
		h = fnv1a(h, byte(m.req))
		h = fnvBool(h, m.excl)
		h = fnvBool(h, m.fresh)
		h = fnvBool(h, m.retry)
	}
	return h
}

// ---- small state helpers ---------------------------------------------------

func bitCount(m uint8) int8 {
	var n int8
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// grantInFlight reports whether a data grant for (node, line) is already
// traveling — the window where the concrete controller parks incoming
// invalidations instead of acting on them.
func (s *state) grantInFlight(node, line int) bool {
	for i := 0; i < int(s.nmsgs); i++ {
		m := &s.msgs[i]
		if int(m.line) != line || int(m.dst) != node {
			continue
		}
		if m.typ == protocol.MsgDataShared || m.typ == protocol.MsgDataExcl || m.typ == protocol.MsgOwnerData {
			return true
		}
	}
	return false
}

// wbInFlight reports whether a write-back for line is still traveling.
func (s *state) wbInFlight(line int) bool {
	for i := 0; i < int(s.nmsgs); i++ {
		if s.msgs[i].typ == protocol.MsgWriteBack && int(s.msgs[i].line) == line {
			return true
		}
	}
	return false
}

// pendingWork reports whether anything is outstanding (messages, home
// ops, or MSHRs) — the predicate behind deadlock detection.
func (s *state) pendingWork(c Config) bool {
	if s.nmsgs > 0 {
		return true
	}
	for l := 0; l < c.Lines; l++ {
		if s.lines[l].op.active {
			return true
		}
		for n := 0; n < c.Nodes; n++ {
			if s.lines[l].mshr[n].kind != mNone {
				return true
			}
		}
	}
	return false
}

// describe renders a state for violation reports.
func (s *state) describe(c Config) string {
	out := ""
	for l := 0; l < c.Lines; l++ {
		ls := &s.lines[l]
		out += fmt.Sprintf("line%d: dir=%d sharers=%02x owner=%d memFresh=%v", l, ls.dirState, ls.sharers, ls.owner, ls.memFresh)
		if ls.op.active {
			out += fmt.Sprintf(" op{req=%d excl=%v acks=%d waitWB=%v fetch=%v needMem=%v}",
				ls.op.requester, ls.op.excl, ls.op.acksLeft, ls.op.waitWB, ls.op.fetch, ls.op.needMem)
		}
		for n := 0; n < c.Nodes; n++ {
			if ls.cache[n] != cInv || ls.mshr[n].kind != mNone {
				out += fmt.Sprintf(" n%d{c=%d f=%v m=%d/%d%s}", n, ls.cache[n], ls.fresh[n],
					ls.mshr[n].kind, ls.mshr[n].attempts, map[bool]string{true: " backoff"}[ls.mshr[n].backoff])
			}
		}
		out += "\n"
	}
	for i := 0; i < int(s.nmsgs); i++ {
		m := &s.msgs[i]
		out += fmt.Sprintf("msg %v line=%d %d->%d req=%d excl=%v fresh=%v retry=%v\n",
			m.typ, m.line, m.src, m.dst, m.req, m.excl, m.fresh, m.retry)
	}
	return out
}
