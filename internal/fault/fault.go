// Package fault generates and applies deterministic fault schedules for
// chaos testing the coherence protocol's recovery machinery. A Schedule is
// a pure function of its seed: the same seed always produces the same fault
// sequence, so any failing chaos run reproduces exactly from the seed alone.
//
// Message faults (drop, duplicate, delay, corrupt) target the k-th original
// message sent on one directed (src, dst) node pair, counted in the pair's
// send order — a coordinate that is stable across runs because each node's
// send order is deterministic, and stable across shard counts because a
// sharded simulation reproduces every node's send order exactly even though
// it does not track a global interleaving.
// Component faults (engine stall, NI port brownout, bus stall) target a
// node at a simulated time. The Injector turns a Schedule into the
// interconnect.FaultHook plus the component-fault wiring that
// machine.InjectFaults installs.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"ccnuma/internal/interconnect"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind uint8

const (
	// Drop loses a message on the link.
	Drop Kind = iota
	// Duplicate injects a second copy of a message.
	Duplicate
	// Delay adds extra switch-traversal latency to a message.
	Delay
	// Corrupt mangles a message's data payload (caught by link CRC when
	// Config.Robust is on).
	Corrupt
	// EngineStall freezes one protocol engine for a duration (transient
	// controller hiccup: ECC scrub, microcode assist, thermal throttle).
	EngineStall
	// Brownout takes one NI port out of service for a duration.
	Brownout
	// BusStall occupies one node's split-transaction bus for a duration.
	BusStall

	numKinds
)

var kindNames = [...]string{
	"drop", "dup", "delay", "corrupt", "engine-stall", "brownout", "bus-stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MessageFault reports whether the kind targets a network message (as
// opposed to a component at a point in simulated time).
func (k Kind) MessageFault() bool { return k <= Corrupt }

// Event is one scheduled fault.
type Event struct {
	Kind Kind

	// Src, Dst, MsgIndex locate a message fault: the MsgIndex-th original
	// message sent from node Src to node Dst.
	Src, Dst int
	MsgIndex uint64
	// Extra is the added traversal latency of a Delay fault.
	Extra sim.Time

	// Node, Engine, Out, At, Dur locate and size component faults:
	// EngineStall uses Node/Engine/At/Dur, Brownout uses Node/Out/At/Dur,
	// BusStall uses Node/At/Dur.
	Node   int
	Engine int
	Out    bool
	At     sim.Time
	Dur    sim.Time
}

func (e Event) String() string {
	if e.Kind.MessageFault() {
		if e.Kind == Delay {
			return fmt.Sprintf("%s@%d>%d#%d(+%d)", e.Kind, e.Src, e.Dst, e.MsgIndex, int64(e.Extra))
		}
		return fmt.Sprintf("%s@%d>%d#%d", e.Kind, e.Src, e.Dst, e.MsgIndex)
	}
	switch e.Kind {
	case EngineStall:
		return fmt.Sprintf("%s@t%d(n%d/e%d,%d)", e.Kind, int64(e.At), e.Node, e.Engine, int64(e.Dur))
	case Brownout:
		dir := "in"
		if e.Out {
			dir = "out"
		}
		return fmt.Sprintf("%s@t%d(n%d/%s,%d)", e.Kind, int64(e.At), e.Node, dir, int64(e.Dur))
	default:
		return fmt.Sprintf("%s@t%d(n%d,%d)", e.Kind, int64(e.At), e.Node, int64(e.Dur))
	}
}

// Schedule is a deterministic, seed-reproducible fault sequence.
type Schedule struct {
	Seed   int64
	Events []Event
}

// String renders the schedule compactly for logs and repro reports.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d [", s.Seed)
	for i, e := range s.Events {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Params bounds schedule generation.
type Params struct {
	// Events is how many faults to draw.
	Events int
	// Horizon is the simulated-time window component faults land in.
	Horizon sim.Time
	// Messages is the (estimated) total message count of the run; message
	// faults draw a per-pair index from its per-pair share, and indices
	// past a pair's actual traffic simply never fire.
	Messages uint64
	// Nodes and Engines size the component-fault targets.
	Nodes   int
	Engines int
}

// Generate draws a schedule from the seed. Identical (seed, Params) always
// yield an identical schedule.
func Generate(seed int64, p Params) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	if p.Events <= 0 {
		p.Events = 4
	}
	if p.Messages == 0 {
		p.Messages = 1000
	}
	if p.Horizon <= 0 {
		p.Horizon = 1_000_000
	}
	if p.Nodes <= 0 {
		p.Nodes = 1
	}
	if p.Engines <= 0 {
		p.Engines = 1
	}
	s := &Schedule{Seed: seed, Events: make([]Event, 0, p.Events)}
	for i := 0; i < p.Events; i++ {
		// Message faults dominate (weights 30/15/15/10); component faults
		// split the rest (10/10/10).
		var k Kind
		switch w := rng.Intn(100); {
		case w < 30:
			k = Drop
		case w < 45:
			k = Duplicate
		case w < 60:
			k = Delay
		case w < 70:
			k = Corrupt
		case w < 80:
			k = EngineStall
		case w < 90:
			k = Brownout
		default:
			k = BusStall
		}
		ev := Event{Kind: k}
		if k.MessageFault() {
			ev.Src = rng.Intn(p.Nodes)
			ev.Dst = ev.Src
			if p.Nodes > 1 {
				// Self-sends never cross the network, so aim the fault at a
				// remote destination.
				ev.Dst = (ev.Src + 1 + rng.Intn(p.Nodes-1)) % p.Nodes
			}
			pairMsgs := int64(p.Messages) / int64(p.Nodes*p.Nodes)
			if pairMsgs < 1 {
				pairMsgs = 1
			}
			ev.MsgIndex = uint64(rng.Int63n(pairMsgs))
			if k == Delay {
				ev.Extra = sim.Time(20 + rng.Int63n(480))
			}
		} else {
			ev.Node = rng.Intn(p.Nodes)
			ev.At = sim.Time(rng.Int63n(int64(p.Horizon)))
			ev.Dur = sim.Time(50 + rng.Int63n(1950))
			switch k {
			case EngineStall:
				ev.Engine = rng.Intn(p.Engines)
			case Brownout:
				ev.Out = rng.Intn(2) == 0
			}
		}
		s.Events = append(s.Events, ev)
	}
	return s
}

// corruptMask is XORed into a corrupted message's data payload.
const corruptMask = 0xdeadbeefdeadbeef

// Injector applies a Schedule to a running machine: its NetFault method is
// the interconnect.FaultHook for the message faults, and the component
// faults are read out by machine.InjectFaults. It also counts what was
// actually applied (scheduled message indices beyond the run's traffic
// never fire).
type Injector struct {
	Schedule *Schedule

	msgFaults map[pairIdx][]Event
	// pairNext[src][dst] counts the original messages seen on the pair. A
	// pair's counter is only ever touched from its source node's engine, so
	// no synchronization is needed even when the simulation is sharded.
	pairNext [][]uint64
	applied  [numKinds]uint64
}

// pairIdx is a message-fault coordinate: the idx-th original message on the
// directed (src, dst) pair.
type pairIdx struct {
	src, dst int
	idx      uint64
}

// NewInjector indexes a schedule for application on a machine with the
// given node count (faults aimed outside it never fire).
func NewInjector(s *Schedule, nodes int) *Injector {
	in := &Injector{Schedule: s, msgFaults: make(map[pairIdx][]Event)}
	in.pairNext = make([][]uint64, nodes)
	for i := range in.pairNext {
		in.pairNext[i] = make([]uint64, nodes)
	}
	for _, ev := range s.Events {
		if ev.Kind.MessageFault() {
			k := pairIdx{src: ev.Src, dst: ev.Dst, idx: ev.MsgIndex}
			in.msgFaults[k] = append(in.msgFaults[k], ev)
		}
	}
	return in
}

// NetFault is the interconnect.FaultHook: it counts original messages per
// directed pair in send order and folds every fault scheduled for the
// current coordinate into one Decision.
func (in *Injector) NetFault(src, dst int, payload interface{}) interconnect.Decision {
	if src < 0 || src >= len(in.pairNext) || dst < 0 || dst >= len(in.pairNext) {
		return interconnect.Decision{}
	}
	idx := in.pairNext[src][dst]
	in.pairNext[src][dst]++
	evs := in.msgFaults[pairIdx{src: src, dst: dst, idx: idx}]
	if len(evs) == 0 {
		return interconnect.Decision{}
	}
	var d interconnect.Decision
	for _, ev := range evs {
		switch ev.Kind {
		case Drop:
			d.Drop = true
			atomic.AddUint64(&in.applied[Drop], 1)
		case Duplicate:
			d.Duplicate = true
			atomic.AddUint64(&in.applied[Duplicate], 1)
		case Delay:
			d.Delay += ev.Extra
			atomic.AddUint64(&in.applied[Delay], 1)
		case Corrupt:
			if msg, ok := payload.(*protocol.Msg); ok {
				mutated := *msg
				mutated.Data ^= corruptMask
				d.Replace = &mutated
				atomic.AddUint64(&in.applied[Corrupt], 1)
			}
		}
	}
	return d
}

// ComponentEvents returns the schedule's non-message faults, for the
// machine to arm at their simulated times.
func (in *Injector) ComponentEvents() []Event {
	var out []Event
	for _, ev := range in.Schedule.Events {
		if !ev.Kind.MessageFault() {
			out = append(out, ev)
		}
	}
	return out
}

// NoteApplied records that a component fault actually took effect (the
// machine calls this when it fires one). Component faults on different
// nodes may fire from different shard workers, so the count is atomic.
func (in *Injector) NoteApplied(k Kind) { atomic.AddUint64(&in.applied[k], 1) }

// Applied returns how many faults of kind k took effect.
func (in *Injector) Applied(k Kind) uint64 { return in.applied[k] }

// AppliedTotal returns the number of faults that took effect across kinds.
func (in *Injector) AppliedTotal() uint64 {
	var n uint64
	for _, c := range in.applied {
		n += c
	}
	return n
}

// AppliedByKind returns a name → count map of the faults that took effect,
// for the run artifact.
func (in *Injector) AppliedByKind() map[string]uint64 {
	out := make(map[string]uint64)
	for k := Kind(0); k < numKinds; k++ {
		if in.applied[k] > 0 {
			out[k.String()] = in.applied[k]
		}
	}
	return out
}

// MsgCount returns how many original messages the injector has seen.
func (in *Injector) MsgCount() uint64 {
	var n uint64
	for _, row := range in.pairNext {
		for _, c := range row {
			n += c
		}
	}
	return n
}
