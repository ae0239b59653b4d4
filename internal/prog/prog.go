// Package prog defines the shared-memory programming interface that
// workload programs are written against. Two implementations exist: the
// detailed execution-driven processor model (cpu.Env), which charges every
// reference to the full timing model, and the fast functional PRAM
// estimator (pram.Env), which runs the same program in a single pass to
// estimate its communication rate — the paper's Section 3.3 methodology of
// measuring RCCPI with a simple simulator to predict the PP penalty.
package prog

// Env is a simulated processor's shared-memory interface. Read, Write,
// their Range forms and Compute issue an operation and return at once: the
// program runs ahead of the simulation, which models its operations one at
// a time, in issue order. Barrier, Lock and Unlock block the program until
// the simulation has modelled every earlier operation and the
// synchronization itself. Programs compute on their own Go memory and may
// share it with other programs only across Barrier, Lock and Unlock:
// between two of those, a program must not read Go data another program
// writes, or its results would depend on how far it ran ahead.
type Env interface {
	// ID returns the global processor index running this program.
	ID() int
	// Node returns the processor's SMP node.
	Node() int
	// Read issues a shared-memory load.
	Read(addr uint64)
	// Write issues a shared-memory store.
	Write(addr uint64)
	// ReadRange loads n consecutive 8-byte words starting at addr.
	ReadRange(addr uint64, n int)
	// WriteRange stores n consecutive 8-byte words starting at addr.
	WriteRange(addr uint64, n int)
	// Compute charges n instruction cycles of local computation.
	Compute(n int)
	// Barrier joins the global barrier.
	Barrier()
	// Lock acquires the numbered lock.
	Lock(id int)
	// Unlock releases the numbered lock.
	Unlock(id int)
}
