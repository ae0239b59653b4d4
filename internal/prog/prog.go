// Package prog defines the operation stream that workload programs issue
// and every simulator consumes. A program is a func(*Env): its Env records
// the loads, stores, compute and synchronization it issues as Ops, and a
// simulator takes them in issue order through Program.Next. Two simulators
// read the same stream: the detailed execution-driven processor model
// (cpu.Proc), which charges every operation to the full timing model, and
// the fast functional PRAM estimator (pram.Sim), which runs the same
// program in a single pass to estimate its communication rate — the
// paper's Section 3.3 methodology of measuring RCCPI with a simple
// simulator to predict the PP penalty.
package prog

import "fmt"

// runAheadLimit is how many operations a program may issue before it
// parks: enough that the coroutine switch is paid once per batch, small
// enough that the buffer embedded in every Program stays a few kilobytes.
const runAheadLimit = 64

// runAhead is the limit a program parks at. Only tests change it, to check
// that results do not depend on it.
var runAhead = runAheadLimit

// Kind is the kind of an operation.
type Kind uint8

const (
	Read    Kind = iota // a shared-memory load of Addr
	Write               // a shared-memory store to Addr
	Barrier             // joins the global barrier
	Lock                // acquires lock ID
	Unlock              // releases lock ID
	Done                // ends the program
)

var kindNames = [...]string{"Read", "Write", "Barrier", "Lock", "Unlock", "Done"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is one operation of a program's stream. Comp is the compute cycles
// the program charged since its previous operation (on Done, since its
// last one), and Calls the number of Compute calls that made them up.
type Op struct {
	Kind  Kind
	Addr  uint64 // of a Read or Write
	ID    int    // of a Lock or Unlock
	Comp  int64
	Calls int
}

// stopSignal is the sentinel panic that unwinds a program whose Program
// was stopped while it was parked. The coroutine body recovers it, so a
// stopped program ends quietly; any other panic reaches the simulator.
type stopSignal struct{}

// Env is a simulated processor's shared-memory interface, the one type
// workload programs are written against. Read, Write, their Range forms
// and Compute issue an operation and return at once: the program runs
// ahead of the simulation, which models its operations one at a time, in
// issue order. Barrier, Lock and Unlock block the program until the
// simulation has modelled every earlier operation and the synchronization
// itself. Programs compute on their own Go memory and may share it with
// other programs only across Barrier, Lock and Unlock: between two of
// those, a program must not read Go data another program writes, or its
// results would depend on how far it ran ahead. An Env is owned by a
// single program.
type Env struct {
	id, node int
	// comp and calls accumulate the Compute charged since the last
	// operation.
	comp  int64
	calls int
	// buf holds the operations issued and not yet taken, from head on. Its
	// backing array is the Program's arr unless a test raised runAhead
	// above runAheadLimit, so issuing allocates nothing.
	buf  []Op
	head int
	// yield parks the program; it reports false once the Program is
	// stopped.
	yield func(struct{}) bool
}

// ID returns the global processor index running this program.
func (e *Env) ID() int { return e.id }

// Node returns the processor's SMP node.
func (e *Env) Node() int { return e.node }

// Read issues a shared-memory load from addr.
func (e *Env) Read(addr uint64) { e.issue(Read, addr) }

// Write issues a shared-memory store to addr.
func (e *Env) Write(addr uint64) { e.issue(Write, addr) }

// Compute charges n instruction cycles of local computation to the next
// operation; n <= 0 charges nothing.
func (e *Env) Compute(n int) {
	if n > 0 {
		e.comp += int64(n)
		e.calls++
	}
}

// Barrier joins the global barrier; the program resumes when every
// processor has arrived.
func (e *Env) Barrier() { e.put(Barrier, 0, 0); e.park() }

// Lock acquires the numbered lock.
func (e *Env) Lock(id int) { e.put(Lock, 0, id); e.park() }

// Unlock releases the numbered lock.
func (e *Env) Unlock(id int) { e.put(Unlock, 0, id); e.park() }

// issue appends a load or store and parks the program only once the
// buffer holds runAhead operations.
func (e *Env) issue(k Kind, addr uint64) {
	e.put(k, addr, 0)
	if len(e.buf) >= runAhead {
		e.park()
	}
}

// put appends an operation carrying the compute charged since the
// previous one. It fills the new entry field by field, in place: an Op
// built elsewhere and copied in costs the hot path a spill and a reload
// that stalls on store forwarding. The buffer grows only in tests that
// raise runAhead.
func (e *Env) put(k Kind, addr uint64, id int) {
	n := len(e.buf)
	if n == cap(e.buf) {
		e.buf = append(e.buf, Op{})
	}
	e.buf = e.buf[:n+1]
	o := &e.buf[n]
	o.Kind, o.Addr, o.ID = k, addr, id
	o.Comp, o.Calls = e.comp, e.calls
	e.comp, e.calls = 0, 0
}

// park hands control back to the simulator, which resumes the program
// when it asks for an operation past the buffered ones. If the Program is
// stopped instead, park unwinds the program.
func (e *Env) park() {
	if !e.yield(struct{}{}) {
		panic(stopSignal{})
	}
}
