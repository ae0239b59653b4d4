// Package badclosure is a cclint test fixture for the sched-closure check.
// The six functions marked "flagged" hand a function literal, through
// sim.Func, to a scheduling entry point or install one as a bus
// transaction's Done; the typed, bound, synchronous and suppressed shapes
// below them must stay silent. It is excluded from normal builds by living
// under testdata.
package badclosure

import (
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// counter is a long-lived object with its callbacks bound once.
type counter struct {
	n      int
	bumpFn sim.Func
	doneFn func(smpbus.Outcome)
}

func (c *counter) bump()                 { c.n++ }
func (c *counter) done(o smpbus.Outcome) { c.bump() }

// ScheduleAt schedules a literal: flagged.
func ScheduleAt(eng *sim.Engine, c *counter) {
	eng.At(1, sim.Func(func() { c.bump() }))
}

// ScheduleAfter schedules a literal: flagged.
func ScheduleAfter(eng *sim.Engine, c *counter) {
	eng.After(1, sim.Func(func() { c.bump() }))
}

// InstallDone assigns a literal to Done: flagged.
func InstallDone(txn *smpbus.Txn, c *counter) {
	txn.Done = func(smpbus.Outcome) { c.bump() }
}

// BuildTxn sets Done to a literal in a composite literal: flagged.
func BuildTxn(c *counter) *smpbus.Txn {
	return &smpbus.Txn{Kind: smpbus.Inval, Done: func(smpbus.Outcome) { c.bump() }}
}

// Grant hands a literal to a resource as its grant: flagged.
func Grant(r *sim.Resource, c *counter) {
	r.AcquireAt(1, 2, sim.Func(func() { c.bump() }))
}

// Publish defers a literal to another engine: flagged.
func Publish(eng, dst *sim.Engine, c *counter) {
	eng.DeferTo(dst, sim.Func(func() { c.bump() }))
}

// bumpStep is a typed action over counter.
type bumpStep counter

func (s *bumpStep) Fire() { (*counter)(s).bump() }

// Typed schedules a typed action on the counter: silent.
func Typed(eng *sim.Engine, r *sim.Resource, c *counter) {
	eng.At(1, (*bumpStep)(c))
	r.Acquire(1, (*bumpStep)(c))
}

// Bound schedules and installs callbacks bound once: silent.
func Bound(eng *sim.Engine, txn *smpbus.Txn, c *counter) {
	if c.bumpFn == nil {
		c.bumpFn = c.bump
		c.doneFn = c.done
	}
	eng.At(1, c.bumpFn)
	txn.Done = c.doneFn
}

// Each passes a literal that runs synchronously: silent.
func Each(xs []int, c *counter) {
	visit(xs, func(int) { c.bump() })
}

func visit(xs []int, fn func(int)) {
	for _, x := range xs {
		fn(x)
	}
}

// Suppressed schedules a literal under a reasoned suppression: silent.
func Suppressed(eng *sim.Engine, c *counter) {
	//cclint:ignore sched-closure runs once per machine, not once per miss
	eng.At(1, sim.Func(func() { c.bump() }))
}
