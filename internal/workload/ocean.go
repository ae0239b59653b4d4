package workload

import (
	"fmt"
	"math"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("ocean", func(size SizeClass, nprocs int) Workload {
		n := 258 // the paper's base 258x258 ocean
		switch size {
		case SizeTest:
			n = 34
		case SizeSmall:
			n = 130
		case SizeLarge:
			n = 514 // the paper's large 514x514 ocean
		}
		return &oceanWork{n: n, iters: 6, nprocs: nprocs}
	})
}

// oceanWork captures the communication behaviour of SPLASH-2 Ocean: a
// red-black Gauss-Seidel relaxation over an n x n grid partitioned into
// contiguous row blocks, with a convergence reduction each iteration. The
// stencil has very little computation per point and the partition
// boundaries (plus the round-robin page placement of the paper's default
// policy) generate the nearest-neighbour and false-sharing traffic that
// makes Ocean the paper's highest-RCCPI application.
type oceanWork struct {
	spanner
	n      int // grid side including boundary
	iters  int
	nprocs int

	grid []float64
	res  []float64 // per-proc partial residuals
	base uint64
	resB uint64

	residuals []float64 // per-iteration global residual (filled by proc 0)
}

func (w *oceanWork) Name() string { return "ocean" }

func (w *oceanWork) Setup(m *machine.Machine) error {
	if w.n < w.nprocs+2 {
		return fmt.Errorf("ocean: grid %d too small for %d procs", w.n, w.nprocs)
	}
	w.init(m)
	w.grid = make([]float64, w.n*w.n)
	w.res = make([]float64, w.nprocs*16) // padded to avoid Go-side confusion
	// Boundary conditions: hot left edge, cold elsewhere.
	for i := 0; i < w.n; i++ {
		w.grid[i*w.n] = 100.0
	}
	w.base = m.Space.Alloc(w.n * w.n * 8)
	w.resB = m.Space.Alloc(w.nprocs * 16 * 8)
	return nil
}

func (w *oceanWork) addr(i, j int) uint64 { return w.base + uint64((i*w.n+j)*8) }

func (w *oceanWork) Body(e *prog.Env) {
	me := e.ID()
	lo, hi := blockRange(w.n-2, w.nprocs, me)
	lo++ // interior rows start at 1
	hi++
	ptsPerLine := int(w.ls) / 8

	for it := 0; it < w.iters; it++ {
		sum := 0.0
		for color := 0; color < 2; color++ {
			for i := lo; i < hi; i++ {
				// Line-granular sweep: each line of our row plus the
				// matching lines of the rows above and below.
				for j0 := 1; j0 < w.n-1; j0 += ptsPerLine {
					jEnd := min(j0+ptsPerLine, w.n-1)
					for j := j0; j < jEnd; j++ {
						if (i+j)%2 != color {
							continue
						}
						old := w.grid[i*w.n+j]
						v := 0.25 * (w.grid[(i-1)*w.n+j] + w.grid[(i+1)*w.n+j] +
							w.grid[i*w.n+j-1] + w.grid[i*w.n+j+1])
						w.grid[i*w.n+j] = v
						d := v - old
						sum += d * d
					}
					e.Read(w.addr(i-1, j0))
					e.Read(w.addr(i+1, j0))
					e.Read(w.addr(i, j0))
					e.Write(w.addr(i, j0))
					e.Compute(10 * (jEnd - j0) / 2)
				}
			}
			e.Barrier()
		}
		// Convergence reduction: publish partial residual, proc 0 sums.
		w.res[me*16] = sum
		e.Write(w.resB + uint64(me*16*8))
		e.Barrier()
		if me == 0 {
			total := 0.0
			for p := 0; p < w.nprocs; p++ {
				total += w.res[p*16]
				e.Read(w.resB + uint64(p*16*8))
			}
			e.Compute(2 * w.nprocs)
			w.residuals = append(w.residuals, total)
		}
		e.Barrier()
	}
}

// Verify checks that the relaxation is converging (residuals decrease) and
// the solution stays within the boundary-condition range.
func (w *oceanWork) Verify() error {
	if len(w.residuals) != w.iters {
		return fmt.Errorf("ocean: recorded %d residuals, want %d", len(w.residuals), w.iters)
	}
	if !(w.residuals[w.iters-1] < w.residuals[0]) {
		return fmt.Errorf("ocean: residual did not decrease: first=%g last=%g",
			w.residuals[0], w.residuals[w.iters-1])
	}
	for i, v := range w.grid {
		if math.IsNaN(v) || v < -1e-9 || v > 100.0+1e-9 {
			return fmt.Errorf("ocean: grid[%d]=%g outside [0,100]", i, v)
		}
	}
	return nil
}
