package model

import (
	"fmt"
	"sort"
	"sync"

	"ccnuma/internal/extract"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/machine"
	"ccnuma/internal/protocol"
	"ccnuma/internal/verify"
)

// Conformance implements core.ConformanceHook: it replays every handler
// dispatch and network send of a running concrete simulator through the
// extracted transition table and records the ones the model does not
// admit. This closes the loop from the other side of the checker — the
// checker proves properties of the abstract model, the conformance
// harness shows the concrete simulator stays inside it.
//
// One hook serves every machine of a run, including replays running
// concurrently (verify.Config.Conform): counts add, the reached rule keys
// union, and failures are kept as a sorted, de-duplicated set, so the
// result does not depend on the order machines finish in.
type Conformance struct {
	ix *extract.Index

	mu sync.Mutex
	// Dispatches and Sends count validated events.
	Dispatches uint64
	Sends      uint64
	// Failures holds the first maxFailures distinct failures in sorted
	// order.
	Failures []string
	reached  map[extract.RuleKey]bool
}

const maxFailures = 16

// NewConformance builds a hook validating against ix.
func NewConformance(ix *extract.Index) *Conformance {
	return &Conformance{ix: ix, reached: map[extract.RuleKey]bool{}}
}

// Events is the number of concrete transitions validated.
func (c *Conformance) Events() uint64 { return c.Dispatches + c.Sends }

// Coverage reports how many of the model's dispatchable rule keys (a
// trigger and the handler it selects) the validated dispatches reached,
// out of how many the model has.
func (c *Conformance) Coverage() (reached, total int) {
	for k := range c.ix.Rules {
		if k.Handler != "" {
			total++
		}
	}
	return len(c.reached), total
}

func (c *Conformance) String() string {
	reached, total := c.Coverage()
	return fmt.Sprintf("conformance — %d dispatches, %d sends validated, %d failure(s), %d of %d rule keys reached",
		c.Dispatches, c.Sends, len(c.Failures), reached, total)
}

// fail records f; the caller holds c.mu.
func (c *Conformance) fail(f string) {
	i := sort.SearchStrings(c.Failures, f)
	if i == maxFailures || i < len(c.Failures) && c.Failures[i] == f {
		return
	}
	if len(c.Failures) < maxFailures {
		c.Failures = append(c.Failures, "")
	}
	copy(c.Failures[i+1:], c.Failures[i:])
	c.Failures[i] = f
}

// Dispatch checks that the model admits dispatching trigger as h.
func (c *Conformance) Dispatch(node int, trigger string, h protocol.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Dispatches++
	name, ok := c.ix.HandlerByID[int(h)]
	if !ok {
		c.fail(fmt.Sprintf("n%d: dispatch of handler id %d (trigger %q) not in the model", node, int(h), trigger))
		return
	}
	if !c.ix.Admits(trigger, name) {
		c.fail(fmt.Sprintf("n%d: model admits no rule for trigger %q as handler %s", node, trigger, name))
		return
	}
	c.reached[extract.RuleKey{Trigger: trigger, Handler: name}] = true
}

// Send checks an outgoing message: synchronous sends must be admitted
// under the dispatching (trigger, handler) rule; asynchronous sends
// (completion closures, the NI NACK bounce, the direct write-back path)
// must be of a type the model marks deferrable.
func (c *Conformance) Send(node int, inDispatch bool, trigger string, h protocol.Handler, t protocol.MsgType) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Sends++
	name := t.String()
	if !inDispatch {
		if !c.ix.Deferred[name] {
			c.fail(fmt.Sprintf("n%d: %s sent outside a dispatch but the model marks no %s send deferred", node, name, name))
		}
		return
	}
	hn := c.ix.HandlerByID[int(h)]
	if !c.ix.AdmitsSend(trigger, hn, name) {
		c.fail(fmt.Sprintf("n%d: model admits no %s send under trigger %q handler %s", node, name, trigger, hn))
	}
}

// ConformanceConfig shapes one concrete replay run.
type ConformanceConfig struct {
	Nodes int
	Lines int
	// Ops is the number of chained accesses per processor.
	Ops    int
	Robust bool
	// Nacks arms ForceNackNext on every controller, driving the real
	// NACK/backoff/retry path through the hook.
	Nacks int
}

// DefaultConformanceConfigs is the standard sampling mix: a small
// machine, a wider one, and a robust one with forced NACKs.
var DefaultConformanceConfigs = []ConformanceConfig{
	{Nodes: 2, Lines: 2, Ops: 32},
	{Nodes: 4, Lines: 3, Ops: 32},
	{Nodes: 4, Lines: 2, Ops: 32, Robust: true, Nacks: 4},
}

// RunConformance drives freshly built concrete machines through
// contended access storms with the hook attached and returns the
// aggregated validation counts and failures.
func RunConformance(ix *extract.Index, cfgs ...ConformanceConfig) (*Conformance, error) {
	c := NewConformance(ix)
	if len(cfgs) == 0 {
		cfgs = DefaultConformanceConfigs
	}
	for _, vc := range cfgs {
		if err := c.run(vc, nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// run drives one storm on a checker machine (verify.Harness) to
// quiescence under the harness's invariants. fault, when non-nil, is
// installed as the network's fault hook (the tests' seam for losing a
// message).
func (c *Conformance) run(sc ConformanceConfig, fault interconnect.FaultHook) error {
	h, err := verify.NewHarness(&verify.Config{
		Nodes: sc.Nodes, ProcsPerNode: 1, Robust: sc.Robust, Conform: c,
		Fault: func(m *machine.Machine) { m.Net.Fault = fault },
	})
	if err != nil {
		return err
	}
	lines := make([]uint64, sc.Lines)
	for i := range lines {
		lines[i] = h.Alloc(i % sc.Nodes)
	}
	if sc.Nacks > 0 {
		for _, cc := range h.M.CCs {
			cc.ForceNackNext(sc.Nacks)
		}
	}
	// Every processor walks the shared lines with a deterministic
	// phase-shifted read/write pattern, chaining the next access from the
	// completion callback so each always has one outstanding (maximum
	// contention and interleaving). done[pi] counts completed accesses.
	done := make([]int, len(h.M.Procs))
	for pi := range h.M.Procs {
		pi := pi
		var next func()
		next = func() {
			if step := done[pi]; step < sc.Ops {
				h.Access(pi, lines[(step+pi)%len(lines)], (step+pi)%3 != 1, func() {
					done[pi]++
					next()
				})
			}
		}
		next()
	}
	if v := h.Drain(nil); v != nil {
		return fmt.Errorf("model: conformance run %+v: %s: %s", sc, v.Kind, v.Detail)
	}
	// A storm that stops short validated only a prefix of its transitions:
	// a lost grant or a protocol deadlock drains the queue just the same.
	for pi, n := range done {
		if n < sc.Ops {
			return fmt.Errorf("model: conformance run %+v deadlocked: processor %d completed %d of %d accesses", sc, pi, n, sc.Ops)
		}
	}
	if v := h.Quiescent(); v != nil {
		return fmt.Errorf("model: conformance run %+v: %s: %s", sc, v.Kind, v.Detail)
	}
	return nil
}
