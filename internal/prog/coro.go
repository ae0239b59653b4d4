//go:build go1.23

package prog

import "iter"

// stopSignal is the sentinel panic that unwinds a program whose coroutine
// was stopped while it was parked in Yield. The coroutine body recovers it,
// so a stopped program ends quietly; any other panic reaches the engine.
type stopSignal struct{}

// Coroutine runs one workload program as a coroutine of the simulation
// engine. The engine calls Next to run the program until it issues its next
// operation; the program calls Yield to hand that operation over and park
// until the engine resumes it. The switch is direct (iter.Pull), so exactly
// one of the engine and the program runs at any time and every run stays
// deterministic.
//
// A panic in the program comes out of Next on the engine's goroutine, where
// the caller's recovery sees it like any model panic.
type Coroutine[Op any] struct {
	next  func() (Op, bool)
	stop  func()
	yield func(Op) bool
}

// Start prepares body as a coroutine without running it: the first Next
// runs it up to its first Yield. When body returns, the coroutine yields
// done as its final operation.
func Start[Op any](body func(), done Op) *Coroutine[Op] {
	c := &Coroutine[Op]{}
	c.next, c.stop = iter.Pull(func(yield func(Op) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (stopSignal{}) {
				panic(r)
			}
		}()
		body()
		yield(done)
	})
	return c
}

// Next resumes the program and returns the operation it issues next.
// After the final done operation the coroutine must be stopped.
func (c *Coroutine[Op]) Next() Op {
	o, _ := c.next()
	return o
}

// Yield hands o to the engine and parks the program until the next Next.
// If the coroutine is stopped instead, Yield unwinds the program.
func (c *Coroutine[Op]) Yield(o Op) {
	if !c.yield(o) {
		panic(stopSignal{})
	}
}

// Stop ends the coroutine: a program parked in Yield unwinds without
// running further, and one that never started never runs. Stop is
// idempotent and must be called on every coroutine, finished or not, so the
// parked program does not pin its machine in memory.
func (c *Coroutine[Op]) Stop() { c.stop() }
