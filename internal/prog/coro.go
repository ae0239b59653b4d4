//go:build go1.23

package prog

import "iter"

// Program runs one workload program as a coroutine of a simulator, which
// calls Next to take the program's operations in issue order. Next
// switches into the program only when none is buffered, and the program
// switches back when its buffer is full or at once after a Barrier, Lock
// or Unlock (see Env). The switch is direct (iter.Pull), so exactly one of
// the simulator and the program runs at any time and every run stays
// deterministic. Program code past a synchronization operation runs only
// once the simulator has taken every earlier operation and asked for the
// next; running ahead moves only when the program's own Go code runs on
// the host, never the simulated time of any operation.
//
// A panic in the program comes out of the Next that ran it, on the
// simulator's goroutine, where the caller's recovery sees it like any
// model panic. The operations the program buffered before panicking are
// never taken.
//
// The program itself receives only the embedded Env, which has no Next or
// Stop.
type Program struct {
	Env
	next func() (struct{}, bool)
	stop func()
	arr  [runAheadLimit]Op
}

// Start prepares program to run as processor id of node without running
// it: the first Next runs it up to its first park. When program returns,
// it issues Done as its final operation.
func Start(id, node int, program func(*Env)) *Program {
	p := &Program{Env: Env{id: id, node: node}}
	p.buf = p.arr[:0]
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (stopSignal{}) {
				panic(r)
			}
		}()
		program(&p.Env)
		p.put(Done, 0, 0)
	})
	return p
}

// Next returns the program's next operation, running the program until it
// parks if none is buffered. The operation stays valid until the next call
// of Next. After Done the Program must be stopped.
func (p *Program) Next() *Op {
	if p.head == len(p.buf) {
		p.buf, p.head = p.buf[:0], 0
		p.next()
	}
	o := &p.buf[p.head]
	p.head++
	return o
}

// Stop ends the program: its buffered operations are discarded, a parked
// program unwinds without running further, and one that never started
// never runs. Stop is idempotent and must be called on every Program,
// finished or not, so the parked program does not pin its simulator in
// memory.
func (p *Program) Stop() {
	p.buf, p.head = p.buf[:0], 0
	p.stop()
}
