//go:build go1.23

package prog

import "iter"

// runAheadLimit is how many operations a program may issue with Put before
// it parks: enough that the coroutine switch is paid once per batch, small
// enough that the buffer embedded in every Coroutine stays a few kilobytes.
const runAheadLimit = 64

// runAhead is the limit Put parks at. Only tests change it, to check that
// results do not depend on it.
var runAhead = runAheadLimit

// stopSignal is the sentinel panic that unwinds a program whose coroutine
// was stopped while it was parked. The coroutine body recovers it, so a
// stopped program ends quietly; any other panic reaches the engine.
type stopSignal struct{}

// Coroutine runs one workload program as a coroutine of the simulation
// engine. The program issues operations into a run-ahead buffer: Put
// appends one and returns, parking the program only once the buffer holds
// runAheadLimit operations; Yield appends one and parks at once. The engine
// calls Next to take the buffered operations in issue order, and switches
// into the program only when the buffer is empty. The switch is direct
// (iter.Pull), so exactly one of the engine and the program runs at any
// time and every run stays deterministic.
//
// Programs use Yield for every operation after which they may read Go
// memory that other programs write (synchronization), so program code past
// a Yield runs only once the engine has taken every earlier operation and
// asked for the next. Put only moves when the program's own Go code runs on
// the host: earlier, but never past its next Yield. The engine still models
// one operation at a time, at the same simulated time as without the
// buffer.
//
// A panic in the program comes out of the Next that ran it, on the engine's
// goroutine, where the caller's recovery sees it like any model panic. The
// operations the program buffered before panicking are never taken.
type Coroutine[Op any] struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// buf holds the operations issued and not yet taken, from head on. Its
	// backing array is arr unless a test raised runAhead above
	// runAheadLimit, so buffering allocates nothing.
	buf  []Op
	head int
	arr  [runAheadLimit]Op
}

// Start prepares body as a coroutine without running it: the first Next
// runs it up to its first park. When body returns, the coroutine issues
// done as its final operation.
func Start[Op any](body func(), done Op) *Coroutine[Op] {
	c := &Coroutine[Op]{}
	c.buf = c.arr[:0]
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (stopSignal{}) {
				panic(r)
			}
		}()
		body()
		c.buf = append(c.buf, done)
	})
	return c
}

// Next returns the program's next operation, running the program until it
// parks if none is buffered. After the final done operation the coroutine
// must be stopped.
func (c *Coroutine[Op]) Next() Op {
	if c.head == len(c.buf) {
		c.buf, c.head = c.buf[:0], 0
		c.next()
	}
	o := c.buf[c.head]
	c.head++
	return o
}

// Put issues o and returns at once, unless the buffer is now full: then
// the program parks until the engine has taken every buffered operation.
func (c *Coroutine[Op]) Put(o Op) {
	c.buf = append(c.buf, o)
	if len(c.buf) >= runAhead {
		c.park()
	}
}

// Yield issues o and parks the program until the engine has taken it and
// every operation before it, and calls Next again.
func (c *Coroutine[Op]) Yield(o Op) {
	c.buf = append(c.buf, o)
	c.park()
}

// park hands control back to the engine. If the coroutine is stopped
// instead of resumed, park unwinds the program.
func (c *Coroutine[Op]) park() {
	if !c.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// Stop ends the coroutine: its buffered operations are discarded, a parked
// program unwinds without running further, and one that never started
// never runs. Stop is idempotent and must be called on every coroutine,
// finished or not, so the parked program does not pin its machine in
// memory.
func (c *Coroutine[Op]) Stop() {
	c.buf, c.head = c.buf[:0], 0
	c.stop()
}
