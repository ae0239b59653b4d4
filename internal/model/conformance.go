package model

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/extract"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/machine"
	"ccnuma/internal/protocol"
)

// Conformance implements core.ConformanceHook: it replays every handler
// dispatch and network send of a running concrete simulator through the
// extracted transition table and records the ones the model does not
// admit. This closes the loop from the other side of the checker — the
// checker proves properties of the abstract model, the conformance
// harness shows the concrete simulator stays inside it.
type Conformance struct {
	ix *extract.Index
	// Dispatches and Sends count validated events.
	Dispatches uint64
	Sends      uint64
	Failures   []string
}

const maxFailures = 16

// NewConformance builds a hook validating against ix.
func NewConformance(ix *extract.Index) *Conformance { return &Conformance{ix: ix} }

// Events is the number of concrete transitions validated.
func (c *Conformance) Events() uint64 { return c.Dispatches + c.Sends }

func (c *Conformance) fail(f string) {
	if len(c.Failures) < maxFailures {
		c.Failures = append(c.Failures, f)
	}
}

// Dispatch checks that the model admits dispatching trigger as h.
func (c *Conformance) Dispatch(node int, trigger string, h protocol.Handler) {
	c.Dispatches++
	name, ok := c.ix.HandlerByID[int(h)]
	if !ok {
		c.fail(fmt.Sprintf("n%d: dispatch of handler id %d (trigger %q) not in the model", node, int(h), trigger))
		return
	}
	if !c.ix.Admits(trigger, name) {
		c.fail(fmt.Sprintf("n%d: model admits no rule for trigger %q as handler %s", node, trigger, name))
	}
}

// Send checks an outgoing message: synchronous sends must be admitted
// under the dispatching (trigger, handler) rule; asynchronous sends
// (completion closures, the NI NACK bounce, the direct write-back path)
// must be of a type the model marks deferrable.
func (c *Conformance) Send(node int, inDispatch bool, trigger string, h protocol.Handler, t protocol.MsgType) {
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

// run drives one storm to quiescence. fault, when non-nil, is installed as
// the network's fault hook (the tests' seam for losing a message).
func (c *Conformance) run(vc ConformanceConfig, fault interconnect.FaultHook) error {
	mc := config.Base()
	mc.Nodes = vc.Nodes
	mc.ProcsPerNode = 1
	mc.Topology = config.TopoCrossbar
	// Single-set, single-line caches: walking more than one line evicts
	// on every step, so the storm exercises write-backs and interventions
	// as densely as possible.
	mc.L1Size, mc.L1Assoc = mc.LineSize, 1
	mc.L2Size, mc.L2Assoc = mc.LineSize, 1
	mc.DirCacheEntries = 0
	mc.SimLimit = 20_000_000
	if vc.Robust {
		mc = mc.WithRobustness()
	}
	m, err := machine.New(mc, "ccmodel-conform")
	if err != nil {
		return err
	}
	for _, cc := range m.CCs {
		cc.SetConformanceHook(c)
	}
	m.Net.Fault = fault
	ls := m.Cfg.LineSize
	lines := make([]uint64, vc.Lines)
	for i := range lines {
		lines[i] = uint64(m.Space.AllocOnNode(ls, i%vc.Nodes))
	}
	if vc.Nacks > 0 {
		for _, cc := range m.CCs {
			cc.ForceNackNext(vc.Nacks)
		}
	}
	// Every processor walks the shared lines with a deterministic
	// phase-shifted read/write pattern, chaining the next access from the
	// completion callback so each always has one outstanding (maximum
	// contention and interleaving). done[pi] counts completed accesses.
	done := make([]int, len(m.Procs))
	for pi, p := range m.Procs {
		p, pi := p, pi
		var next, complete func()
		next = func() {
			if step := done[pi]; step < vc.Ops {
				p.SyncAccess(lines[(step+pi)%len(lines)], (step+pi)%3 != 1, complete)
			}
		}
		complete = func() {
			done[pi]++
			next()
		}
		next()
	}
	for m.Eng.Step() {
	}
	if m.Eng.LimitHit() {
		return fmt.Errorf("model: conformance run %+v hit the event limit before draining", vc)
	}
	// A storm that stops short validated only a prefix of its transitions:
	// a lost grant or a protocol deadlock drains the queue just the same.
	for pi, n := range done {
		if n < vc.Ops {
			return fmt.Errorf("model: conformance run %+v deadlocked: processor %d completed %d of %d accesses", vc, pi, n, vc.Ops)
		}
	}
	if err := m.CheckDrained(); err != nil {
		return fmt.Errorf("model: conformance run %+v deadlocked: %w", vc, err)
	}
	if err := m.CheckCoherence(); err != nil {
		return fmt.Errorf("model: conformance run %+v ended incoherent: %w", vc, err)
	}
	return nil
}
