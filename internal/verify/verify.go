// Package verify is the concrete half of the protocol checker (ccmodel
// -replay and -sweep-faults). Unlike the abstract model (internal/model),
// it drives the REAL simulator stack (cpu caches, smpbus, core
// controllers, directory, interconnect) over a tiny machine — 2-3 nodes,
// 1-2 processors per node, single-set caches and a single shared target
// line — and explores the reachable protocol state space by breadth-first
// search over quiescent machine states.
//
// The simulator schedules actions on live model objects, which cannot be
// snapshotted, so the checker is replay-based: every explored edge rebuilds the machine from
// scratch and deterministically replays the path of operations that leads
// to the edge's source state. Determinism of the sim engine makes replays
// bit-for-bit reproducible, so a violation's Path field is a complete
// recipe for reproducing it.
//
// Exploration has two phases:
//
//   - Phase A (BFS): from each known quiescent state, apply every
//     (processor, operation) pair, run the machine to quiescence while
//     checking safety invariants after every engine event, and hash the
//     resulting abstract state. New hashes extend the frontier; the phase
//     ends at a fixpoint (or the MaxStates budget).
//   - Phase B (races): from each known state, every ordered pair of
//     operations on two different processors is raced: the second op is
//     injected at a set of start offsets sampled from the event times of
//     the first op's solo execution, covering the transient interleavings
//     that serialized BFS edges cannot reach.
//
// Every machine comes from one Harness, which the model package's
// conformance storms share, and can carry a conformance hook (Config.
// Conform) that validates each dispatch and send against the extracted
// rule table.
//
// Invariants checked: at most one Modified copy of a line system-wide (per
// event), no livelock (simulated time advances, the event queue drains),
// every operation completes, nothing in flight, queued or transient
// survives quiescence (machine.CheckDrained), directory/cache agreement at
// quiescence (machine.CheckCoherence), loads return the last written value
// (tracked through the simulator's shadow data-value plumbing), and
// write-backs are never lost (memory agrees with the last write once no
// dirty copy exists).
package verify

import (
	"context"
	"fmt"
	"strings"

	"ccnuma/internal/core"
	"ccnuma/internal/machine"
	pool "ccnuma/internal/runner"
	"ccnuma/internal/sim"
)

// OpKind is one processor operation in the checker's vocabulary.
type OpKind int

const (
	// OpReadT loads the shared target line.
	OpReadT OpKind = iota
	// OpWriteT stores to the shared target line.
	OpWriteT
	// OpReadV loads the processor's private victim line, which maps to the
	// same (only) cache set as the target and therefore evicts it —
	// modelling a clean or dirty eviction depending on the target's state.
	OpReadV
	// OpWriteV stores to the victim line, so its later eviction exercises
	// the dirty write-back path for a line whose home is the local node.
	OpWriteV

	numOpKinds
)

var opNames = [...]string{"ReadT", "WriteT", "ReadV", "WriteV"}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Step is one scheduled operation in a replayable path.
type Step struct {
	Proc int
	Op   OpKind
	// Delay is the start offset after quiescence, used by the second
	// operation of a phase-B race (0 for serialized BFS steps).
	Delay sim.Time
}

func (s Step) String() string {
	if s.Delay > 0 {
		return fmt.Sprintf("p%d:%v@+%d", s.Proc, s.Op, s.Delay)
	}
	return fmt.Sprintf("p%d:%v", s.Proc, s.Op)
}

// PathString renders a replay path compactly.
func PathString(path []Step) string {
	parts := make([]string, len(path))
	for i, s := range path {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Config parameterizes a checking run.
type Config struct {
	// Nodes and ProcsPerNode size the machine (2-3 nodes, 1-2 procs/node
	// are practical; the state space grows steeply beyond that).
	Nodes        int
	ProcsPerNode int

	// MaxStates bounds phase A (0 = default 5000). Hitting the bound sets
	// Result.Truncated instead of failing.
	MaxStates int
	// MaxRaceOffsets bounds the injection offsets tried per race pair
	// (0 = default 6; -1 explores every distinct solo event time).
	MaxRaceOffsets int
	// MaxRaces bounds the total phase-B runs (0 = default 5000; -1 skips
	// phase B entirely).
	MaxRaces int
	// MaxViolations stops the search after this many violations
	// (0 = default 3).
	MaxViolations int

	// Robust builds every checker machine with the recovery layer on
	// (config.Config.Robust): finite queues with NACK/retry,
	// request timeouts, and link-level reliable delivery. The single-fault
	// sweep uses it to assert that injected faults are survivable.
	Robust bool

	// Jobs bounds how many replays run concurrently (<= 0 = GOMAXPROCS,
	// 1 = serial). Replays are independent rebuilt machines and results are
	// always folded in replay order, so the Result is identical for any
	// value. A non-nil Fault must then be safe to apply to machines being
	// replayed concurrently (the stock mutation seams are: each installs
	// per-machine hooks).
	Jobs int

	// Fault, when non-nil, is applied to every rebuilt machine before
	// replay. It exists to seed protocol mutations (e.g. dropping an
	// InvalAck) and prove the invariant suite catches them; the fault
	// sweep sets its own.
	Fault func(m *machine.Machine)

	// Conform, when non-nil, is attached to every controller of every
	// rebuilt machine, so each replayed dispatch and send is validated
	// against the extracted rule table. Replays share it, so it must be
	// safe for concurrent use and fold its results independently of the
	// order replays finish in.
	Conform core.ConformanceHook

	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

func (vc *Config) normalized() Config {
	c := *vc
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 5000
	}
	if c.MaxRaceOffsets == 0 {
		c.MaxRaceOffsets = 6
	}
	if c.MaxRaces == 0 {
		c.MaxRaces = 5000
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 3
	}
	return c
}

func (vc *Config) logf(format string, args ...interface{}) {
	if vc.Log != nil {
		vc.Log(format, args...)
	}
}

// Violation is one invariant failure, with the deterministic replay path
// that reproduces it.
type Violation struct {
	Kind   string
	Detail string
	Path   []Step
	// PathStr is the rendered path.
	PathStr string
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s\n  path: %s", v.Kind, v.Detail, v.PathStr)
}

// Result summarizes an exploration.
type Result struct {
	States int
	Edges  int
	Races  int
	// Truncated means phase A hit the state budget before the BFS closed;
	// RacesTruncated means phase B hit the race budget. The former leaves
	// quiescent states unexplored, the latter only thins race coverage.
	Truncated      bool
	RacesTruncated bool
	Violations     []Violation
}

// OK reports whether the exploration found no violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Run explores the protocol state space per vc and returns the result. It
// returns a non-nil error only for configuration/machine-construction
// problems; protocol bugs are reported as Violations.
func Run(vc Config) (*Result, error) {
	c := vc.normalized()
	res := &Result{}

	// Probe machine construction once so config errors surface as errors
	// rather than as a violation on every edge.
	if _, err := newRunner(&c); err != nil {
		return nil, err
	}

	ops := c.allSteps()

	// Phase A: BFS over quiescent states. order holds, per visited state,
	// the shortest path that reaches it (the BFS tree).
	visited := map[string][]Step{}
	var order [][]Step

	h, vio := protect(func() (string, *Violation) { return runPath(&c, nil) })
	if vio != nil {
		vio.PathStr = PathString(vio.Path)
		res.Violations = append(res.Violations, *vio)
		return res, nil
	}
	visited[h] = nil
	order = append(order, nil)

	type edge struct {
		path []Step
		h    string
		vio  *Violation
	}
	for i := 0; i < len(order); i++ {
		if len(res.Violations) >= c.MaxViolations {
			break
		}
		src := order[i]
		// Expand every op out of src concurrently — each expansion rebuilds
		// its own machine and replays independently — then fold the edges in
		// op order, so edge counts, violation order, and frontier growth are
		// identical to the serial loop for any Jobs value.
		edges, _ := pool.Map(context.Background(), c.Jobs, len(ops),
			func(j int) (edge, error) {
				path := append(append([]Step{}, src...), ops[j])
				h, vio := protect(func() (string, *Violation) { return runPath(&c, path) })
				return edge{path: path, h: h, vio: vio}, nil
			})
		for _, e := range edges {
			res.Edges++
			if e.vio != nil {
				res.Violations = append(res.Violations, *e.vio)
				if len(res.Violations) >= c.MaxViolations {
					break
				}
				continue
			}
			if _, seen := visited[e.h]; !seen {
				if len(visited) >= c.MaxStates {
					res.Truncated = true
					continue
				}
				visited[e.h] = e.path
				order = append(order, e.path)
			}
		}
		if i%32 == 0 {
			c.logf("phase A: %d states, %d edges, frontier %d", len(visited), res.Edges, len(order)-i-1)
		}
	}
	res.States = len(visited)
	c.logf("phase A done: %d states, %d edges (fixpoint=%v)", res.States, res.Edges, !res.Truncated)

	// Phase B: pairwise races from every known state.
	if c.MaxRaces > 0 && len(res.Violations) < c.MaxViolations {
		runRaces(&c, order, res)
	}
	for i := range res.Violations {
		res.Violations[i].PathStr = PathString(res.Violations[i].Path)
	}
	return res, nil
}

// allSteps enumerates every (processor, op) pair.
func (vc *Config) allSteps() []Step {
	var out []Step
	n := vc.Nodes * vc.ProcsPerNode
	for p := 0; p < n; p++ {
		for k := OpKind(0); k < numOpKinds; k++ {
			out = append(out, Step{Proc: p, Op: k})
		}
	}
	return out
}

// protect converts panics raised inside the simulator (e.g. a handler
// hitting an impossible state after a seeded mutation) into violations.
func protect(fn func() (string, *Violation)) (h string, v *Violation) {
	defer func() {
		if p := recover(); p != nil {
			v = &Violation{Kind: "panic", Detail: fmt.Sprint(p)}
		}
	}()
	return fn()
}

// runner is one state-space-walk machine: the harness plus the checker's
// lines. target is the contended line, homed on node 0; victims[p] is the
// private conflict line for processor p, homed on p's own node, which maps
// to the same (only) cache set as the target and therefore evicts it.
type runner struct {
	*Harness
	target  uint64
	victims []uint64
}

// newRunner builds a fresh harness and allocates the checker's lines.
func newRunner(vc *Config) (*runner, error) {
	h, err := NewHarness(vc)
	if err != nil {
		return nil, err
	}
	r := &runner{Harness: h, target: h.Alloc(0)}
	for _, p := range h.M.Procs {
		r.victims = append(r.victims, h.Alloc(p.Node()))
	}
	return r, nil
}

// lineFor maps a step to its target line and access kind.
func (r *runner) lineFor(s Step) (line uint64, write bool) {
	switch s.Op {
	case OpReadT:
		return r.target, false
	case OpWriteT:
		return r.target, true
	case OpReadV:
		return r.victims[s.Proc], false
	case OpWriteV:
		return r.victims[s.Proc], true
	default:
		panic(fmt.Sprintf("verify: unknown op %v", s.Op))
	}
}

// applyStep issues one operation, runs the machine to quiescence with
// per-event invariant checks, and then applies the quiescent checks
// (completion, read value, drained machine, cache/directory agreement,
// write-back preservation).
func (r *runner) applyStep(s Step, times *[]sim.Time) *Violation {
	line, write := r.lineFor(s)
	done := false
	r.Access(s.Proc, line, write, func() { done = true })
	if v := r.Drain(times); v != nil {
		return v
	}
	if !done {
		return &Violation{Kind: "lost-op", Detail: fmt.Sprintf(
			"%v never completed; engine drained at t=%d", s, r.M.Eng.Now())}
	}
	if !write {
		if got, want := r.M.Procs[s.Proc].LastReadValue(), r.lastVal[line]; got != want {
			return &Violation{Kind: "stale-read", Detail: fmt.Sprintf(
				"%v observed value %#x, want last written %#x", s, got, want)}
		}
	}
	return r.Quiescent()
}

// runPath rebuilds the machine, replays every step to quiescence, and
// returns the final abstract state hash.
func runPath(vc *Config, path []Step) (string, *Violation) {
	r, err := newRunner(vc)
	if err != nil {
		return "", &Violation{Kind: "setup", Detail: err.Error(), Path: path}
	}
	for i, s := range path {
		if v := r.applyStep(s, nil); v != nil {
			v.Path = path[:i+1]
			return "", v
		}
	}
	return r.hash(), nil
}
