package workload

import (
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("micro", func(size SizeClass, nprocs int) Workload {
		iters := 400
		switch size {
		case SizeTest:
			iters = 50
		case SizeSmall:
			iters = 150
		case SizeLarge:
			iters = 1200
		}
		return &microWork{iters: iters, sharePct: 50, computePer: 30, nprocs: nprocs}
	})
}

// microWork is a synthetic workload with a directly tunable communication
// rate, used to sweep RCCPI for the Figure 11/12 reproductions (the
// paper's methodology: calibrate the penalty-vs-RCCPI curve with simple
// applications and use it to predict larger ones). Each iteration touches
// either a migratory shared line (read-modify-write that ping-pongs
// between nodes) or a node-local private line, in a deterministic
// interleave set by sharePct, followed by computePer cycles of local work.
type microWork struct {
	spanner
	iters      int
	sharePct   int // percentage of iterations touching shared lines
	computePer int
	nprocs     int

	sharedLines int
	sharedBase  uint64
	privBase    []uint64

	done []bool
}

// NewMicro builds a micro workload with explicit knobs (used by the
// experiment harness for controlled RCCPI sweeps).
func NewMicro(iters, sharePct, computePer, nprocs int) Workload {
	return &microWork{iters: iters, sharePct: sharePct, computePer: computePer, nprocs: nprocs}
}

func (w *microWork) Name() string { return "micro" }

func (w *microWork) Setup(m *machine.Machine) error {
	w.init(m)
	w.sharedLines = 64
	w.sharedBase = m.Space.Alloc(w.sharedLines * int(w.ls))
	w.privBase = make([]uint64, w.nprocs)
	for p := range w.privBase {
		node := p * m.Cfg.Nodes / w.nprocs
		w.privBase[p] = m.Space.AllocOnNode(64*int(w.ls), node)
	}
	w.done = make([]bool, w.nprocs)
	return nil
}

func (w *microWork) Body(e *prog.Env) {
	me := e.ID()
	for i := 0; i < w.iters; i++ {
		if (i*100/w.iters+me*37)%100 < w.sharePct {
			// Shared access: mostly reads of lines other processors write
			// (producer/consumer), with every third access a migratory
			// read-modify-write — approximating the read-dominated sharing
			// mix of the SPLASH-2 applications.
			line := w.sharedBase + uint64(((i*13+me*7)%w.sharedLines))*w.ls
			e.Read(line)
			if i%3 == 0 {
				e.Write(line)
			}
		} else {
			line := w.privBase[me] + uint64((i%64))*w.ls
			e.Read(line)
			e.Write(line)
		}
		e.Compute(w.computePer)
	}
	w.done[me] = true
	e.Barrier()
}

// Verify checks every processor completed its loop.
func (w *microWork) Verify() error {
	for p, d := range w.done {
		if !d {
			return errNotDone(p)
		}
	}
	return nil
}

type errNotDone int

func (e errNotDone) Error() string { return "micro: processor did not finish" }
