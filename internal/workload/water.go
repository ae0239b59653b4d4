package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("water-nsq", func(size SizeClass, nprocs int) Workload {
		n := 256
		switch size {
		case SizeTest:
			n = 32
		case SizeSmall:
			n = 128
		case SizeLarge:
			n = 384
		}
		return &waterWork{name: "water-nsq", n: n, steps: 2, nprocs: nprocs, nsq: true}
	})
	register("water-sp", func(size SizeClass, nprocs int) Workload {
		n := 512
		switch size {
		case SizeTest:
			n = 64
		case SizeSmall:
			n = 256
		case SizeLarge:
			n = 1024
		}
		return &waterWork{name: "water-sp", n: n, steps: 2, nprocs: nprocs, cells: 4}
	})
}

// molecule is a simplified water molecule: position, velocity, and a
// shared force accumulator (one cache line each for the read-mostly state
// and for the force line, as in the SPLASH-2 data layout).
type molecule struct {
	pos   [3]float64
	vel   [3]float64
	force [3]float64
}

// waterWork implements both Water variants of the paper's Table 5.
//
// water-nsq computes O(n^2/2) pairwise interactions: every processor reads
// every other molecule's state and accumulates force contributions into
// per-molecule shared accumulators guarded by per-molecule locks — the
// moderate, lock-heavy communication pattern of Water-Nsquared.
//
// water-sp sorts molecules into a 3-D grid of cells and computes
// interactions only between neighbouring cells; processors own contiguous
// cell blocks, so most interactions are node-local and the communication
// rate is the lowest of the suite, as in the paper.
type waterWork struct {
	spanner
	name   string
	n      int
	steps  int
	nprocs int
	nsq    bool
	cells  int // cells per dimension (water-sp)

	mols     []molecule
	cellOf   []int
	cellList [][]int
	molBase  uint64 // read-mostly molecule state, one line each
	frcBase  uint64 // shared force accumulators, one line each

	initialKE float64
	finalKE   float64
}

func (w *waterWork) Name() string { return w.name }

func (w *waterWork) Setup(m *machine.Machine) error {
	w.init(m)
	if w.n < w.nprocs {
		return fmt.Errorf("%s: %d molecules for %d procs", w.name, w.n, w.nprocs)
	}
	w.mols = make([]molecule, w.n)
	rng := rand.New(rand.NewSource(19 + w.seed))
	for i := range w.mols {
		for d := 0; d < 3; d++ {
			w.mols[i].pos[d] = rng.Float64() // unit box
			w.mols[i].vel[d] = (rng.Float64() - 0.5) * 0.01
		}
	}
	w.molBase = m.Space.Alloc(w.n * int(w.ls))
	w.frcBase = m.Space.Alloc(w.n * int(w.ls))
	if !w.nsq {
		w.cellOf = make([]int, w.n)
		w.cellList = make([][]int, w.cells*w.cells*w.cells)
		w.binMolecules()
	}
	w.initialKE = w.kinetic()
	return nil
}

func (w *waterWork) molAddr(i int) uint64 { return w.molBase + uint64(i)*w.ls }
func (w *waterWork) frcAddr(i int) uint64 { return w.frcBase + uint64(i)*w.ls }

func (w *waterWork) binMolecules() {
	for c := range w.cellList {
		w.cellList[c] = w.cellList[c][:0]
	}
	for i := range w.mols {
		c := 0
		for d := 0; d < 3; d++ {
			x := int(w.mols[i].pos[d] * float64(w.cells))
			if x >= w.cells {
				x = w.cells - 1
			}
			if x < 0 {
				x = 0
			}
			c = c*w.cells + x
		}
		w.cellOf[i] = c
		w.cellList[c] = append(w.cellList[c], i)
	}
}

// pairForce returns a Lennard-Jones-ish force between molecules i and j.
func (w *waterWork) pairForce(i, j int) [3]float64 {
	var dr [3]float64
	r2 := 0.01
	for d := 0; d < 3; d++ {
		dr[d] = w.mols[j].pos[d] - w.mols[i].pos[d]
		r2 += dr[d] * dr[d]
	}
	inv := 1.0 / r2
	f := inv*inv*inv - 0.5*inv*inv
	var out [3]float64
	for d := 0; d < 3; d++ {
		out[d] = f * dr[d] * 1e-4
	}
	return out
}

func (w *waterWork) Body(e *prog.Env) {
	if w.nsq {
		w.bodyNsq(e)
	} else {
		w.bodySpatial(e)
	}
	if e.ID() == 0 {
		w.finalKE = w.kinetic()
	}
	e.Barrier()
}

func (w *waterWork) bodyNsq(e *prog.Env) {
	me := e.ID()
	lo, hi := blockRange(w.n, w.nprocs, me)
	for s := 0; s < w.steps; s++ {
		// Local force accumulation over all pairs (i owned, any j > i).
		local := make([][3]float64, w.n)
		for i := lo; i < hi; i++ {
			e.Read(w.molAddr(i))
			for j := i + 1; j < w.n; j++ {
				f := w.pairForce(i, j)
				for d := 0; d < 3; d++ {
					local[i][d] += f[d]
					local[j][d] -= f[d]
				}
				e.Read(w.molAddr(j))
				e.Compute(100)
			}
		}
		// Publish contributions into the shared accumulators under
		// per-molecule locks (SPLASH-2 updates each molecule's force once
		// per processor per step).
		for j := 0; j < w.n; j++ {
			if local[j][0] == 0 && local[j][1] == 0 && local[j][2] == 0 {
				continue
			}
			e.Lock(j)
			for d := 0; d < 3; d++ {
				w.mols[j].force[d] += local[j][d]
			}
			e.Write(w.frcAddr(j))
			e.Compute(6)
			e.Unlock(j)
		}
		e.Barrier()
		// Integrate owned molecules (local).
		w.integrate(e, lo, hi)
		e.Barrier()
	}
}

func (w *waterWork) bodySpatial(e *prog.Env) {
	me := e.ID()
	nc := w.cells * w.cells * w.cells
	cl, ch := blockRange(nc, w.nprocs, me)
	for s := 0; s < w.steps; s++ {
		// Interactions between owned cells and their neighbour cells.
		for c := cl; c < ch; c++ {
			cz := c % w.cells
			cy := (c / w.cells) % w.cells
			cx := c / (w.cells * w.cells)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for dz := -1; dz <= 1; dz++ {
						nx, ny, nz := cx+dx, cy+dy, cz+dz
						if nx < 0 || ny < 0 || nz < 0 || nx >= w.cells || ny >= w.cells || nz >= w.cells {
							continue
						}
						nb := (nx*w.cells+ny)*w.cells + nz
						w.cellPair(e, c, nb)
					}
				}
			}
		}
		e.Barrier()
		// Integrate molecules in owned cells; rebinning is done by proc 0
		// after integration (cell lists are small).
		for c := cl; c < ch; c++ {
			for _, i := range w.cellList[c] {
				w.integrateOne(e, i)
			}
		}
		e.Barrier()
		if me == 0 {
			w.binMolecules()
			e.Compute(4 * w.n)
		}
		e.Barrier()
	}
}

// cellPair accumulates forces of cell c's molecules from neighbour cell nb.
func (w *waterWork) cellPair(e *prog.Env, c, nb int) {
	for _, i := range w.cellList[c] {
		e.Read(w.molAddr(i))
		for _, j := range w.cellList[nb] {
			if j == i {
				continue
			}
			f := w.pairForce(i, j)
			for d := 0; d < 3; d++ {
				w.mols[i].force[d] += f[d]
			}
			e.Read(w.molAddr(j))
			e.Compute(100)
		}
		e.Write(w.frcAddr(i))
	}
}

func (w *waterWork) integrate(e *prog.Env, lo, hi int) {
	for i := lo; i < hi; i++ {
		w.integrateOne(e, i)
	}
}

func (w *waterWork) integrateOne(e *prog.Env, i int) {
	const dt = 0.005
	m := &w.mols[i]
	for d := 0; d < 3; d++ {
		m.vel[d] += m.force[d] * dt
		m.pos[d] += m.vel[d] * dt
		// Reflecting walls keep the box bounded.
		if m.pos[d] < 0 {
			m.pos[d], m.vel[d] = -m.pos[d], -m.vel[d]
		}
		if m.pos[d] > 1 {
			m.pos[d], m.vel[d] = 2-m.pos[d], -m.vel[d]
		}
		m.force[d] = 0
	}
	e.Read(w.frcAddr(i))
	e.Write(w.molAddr(i))
	e.Compute(18)
}

func (w *waterWork) kinetic() float64 {
	var ke float64
	for i := range w.mols {
		v := &w.mols[i].vel
		ke += v[0]*v[0] + v[1]*v[1] + v[2]*v[2]
	}
	return ke
}

// Verify checks the integration stayed finite and molecules remain in the
// box.
func (w *waterWork) Verify() error {
	if math.IsNaN(w.finalKE) || math.IsInf(w.finalKE, 0) {
		return fmt.Errorf("%s: non-finite kinetic energy", w.name)
	}
	if w.finalKE == w.initialKE {
		return fmt.Errorf("%s: molecules did not move", w.name)
	}
	for i := range w.mols {
		for d := 0; d < 3; d++ {
			p := w.mols[i].pos[d]
			if math.IsNaN(p) || p < -1e-9 || p > 1+1e-9 {
				return fmt.Errorf("%s: molecule %d left the box (%g)", w.name, i, p)
			}
		}
	}
	return nil
}
