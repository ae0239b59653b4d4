package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("lu", func(size SizeClass, nprocs int) Workload {
		n, b := 256, 32
		switch size {
		case SizeTest:
			n, b = 64, 16
		case SizeSmall:
			n, b = 128, 16
		case SizeLarge:
			n, b = 384, 32
		}
		return &luWork{n: n, b: b, nprocs: nprocs}
	})
}

// luWork is the SPLASH-2 LU kernel: blocked dense LU factorization without
// pivoting of an n x n matrix with b x b blocks, 2D-scatter block
// ownership, and barriers separating the diagonal, perimeter, and interior
// phases of each step. Blocks are stored contiguously (the SPLASH-2
// "optimized" layout), so a block occupies whole cache lines and the
// communication is block-granular: the diagonal block and the perimeter
// blocks of step k are read by many processors right after their owners
// write them.
type luWork struct {
	spanner
	n, b   int
	nprocs int
	nb     int // blocks per dimension
	pr, pc int // processor grid

	a    []float64 // block-major storage
	orig []float64 // copy for verification
	base uint64
}

func (w *luWork) Name() string { return "lu" }

func (w *luWork) Setup(m *machine.Machine) error {
	w.init(m)
	if w.n%w.b != 0 {
		return fmt.Errorf("lu: n=%d not divisible by b=%d", w.n, w.b)
	}
	w.nb = w.n / w.b
	// Near-square processor grid.
	w.pr = 1
	for (w.pr*2) <= w.nprocs && w.nprocs%(w.pr*2) == 0 && w.pr*2 <= w.nb {
		w.pr *= 2
	}
	w.pc = w.nprocs / w.pr

	w.a = make([]float64, w.n*w.n)
	rng := rand.New(rand.NewSource(7 + w.seed))
	// Diagonally dominant matrix so factorization without pivoting is
	// stable.
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			v := rng.Float64()
			if i == j {
				v += float64(w.n)
			}
			w.set(i, j, v)
		}
	}
	w.orig = append([]float64(nil), w.a...)
	w.base = m.Space.Alloc(w.n * w.n * 8)
	return nil
}

// idx maps (i, j) to the block-major element index.
func (w *luWork) idx(i, j int) int {
	bi, bj := i/w.b, j/w.b
	return (bi*w.nb+bj)*w.b*w.b + (i%w.b)*w.b + (j % w.b)
}

func (w *luWork) at(i, j int) float64     { return w.a[w.idx(i, j)] }
func (w *luWork) set(i, j int, v float64) { w.a[w.idx(i, j)] = v }

// blockAddr returns the simulated address of block (bi, bj).
func (w *luWork) blockAddr(bi, bj int) uint64 {
	return w.base + uint64((bi*w.nb+bj)*w.b*w.b*8)
}

func (w *luWork) owner(bi, bj int) int {
	return (bi%w.pr)*w.pc + (bj % w.pc)
}

func (w *luWork) blockBytes() int { return w.b * w.b * 8 }

// touchRead / touchWrite issue the line-granular references for a block
// access along with the arithmetic cost.
func (w *luWork) touchRead(e *prog.Env, bi, bj int) {
	w.readSpan(e, w.blockAddr(bi, bj), w.blockBytes())
}

func (w *luWork) touchWrite(e *prog.Env, bi, bj int) {
	w.writeSpan(e, w.blockAddr(bi, bj), w.blockBytes())
}

func (w *luWork) Body(e *prog.Env) {
	me := e.ID()
	b := w.b
	for k := 0; k < w.nb; k++ {
		// Phase 1: factor the diagonal block.
		if w.owner(k, k) == me {
			kk := k * b
			for j := kk; j < kk+b; j++ {
				pivot := 1.0 / w.at(j, j)
				for i := j + 1; i < kk+b; i++ {
					w.set(i, j, w.at(i, j)*pivot)
					for c := j + 1; c < kk+b; c++ {
						w.set(i, c, w.at(i, c)-w.at(i, j)*w.at(j, c))
					}
				}
			}
			w.touchRead(e, k, k)
			w.touchWrite(e, k, k)
			e.Compute(2 * b * b * b / 3)
		}
		e.Barrier()
		// Phase 2: perimeter blocks.
		for j := k + 1; j < w.nb; j++ {
			if w.owner(k, j) == me {
				w.updatePerimeterRow(e, k, j)
			}
		}
		for i := k + 1; i < w.nb; i++ {
			if w.owner(i, k) == me {
				w.updatePerimeterCol(e, i, k)
			}
		}
		e.Barrier()
		// Phase 3: interior blocks.
		for i := k + 1; i < w.nb; i++ {
			for j := k + 1; j < w.nb; j++ {
				if w.owner(i, j) == me {
					w.updateInterior(e, i, j, k)
				}
			}
		}
		e.Barrier()
	}
}

// updatePerimeterRow: A(k,j) <- L(k,k)^-1 A(k,j) (forward solve).
func (w *luWork) updatePerimeterRow(e *prog.Env, k, j int) {
	b := w.b
	kk, jj := k*b, j*b
	for r := kk; r < kk+b; r++ {
		for i := r + 1; i < kk+b; i++ {
			l := w.at(i, r)
			for c := jj; c < jj+b; c++ {
				w.set(i, c, w.at(i, c)-l*w.at(r, c))
			}
		}
	}
	w.touchRead(e, k, k)
	w.touchRead(e, k, j)
	w.touchWrite(e, k, j)
	e.Compute(b * b * b)
}

// updatePerimeterCol: A(i,k) <- A(i,k) U(k,k)^-1.
func (w *luWork) updatePerimeterCol(e *prog.Env, i, k int) {
	b := w.b
	ii, kk := i*b, k*b
	for c := kk; c < kk+b; c++ {
		pivot := 1.0 / w.at(c, c)
		for r := ii; r < ii+b; r++ {
			w.set(r, c, w.at(r, c)*pivot)
			for c2 := c + 1; c2 < kk+b; c2++ {
				w.set(r, c2, w.at(r, c2)-w.at(r, c)*w.at(c, c2))
			}
		}
	}
	w.touchRead(e, k, k)
	w.touchRead(e, i, k)
	w.touchWrite(e, i, k)
	e.Compute(w.b * w.b * w.b)
}

// updateInterior: A(i,j) -= A(i,k) * A(k,j).
func (w *luWork) updateInterior(e *prog.Env, i, j, k int) {
	b := w.b
	ii, jj, kk := i*b, j*b, k*b
	for r := 0; r < b; r++ {
		for m := 0; m < b; m++ {
			l := w.at(ii+r, kk+m)
			for c := 0; c < b; c++ {
				w.set(ii+r, jj+c, w.at(ii+r, jj+c)-l*w.at(kk+m, jj+c))
			}
		}
	}
	w.touchRead(e, i, k)
	w.touchRead(e, k, j)
	w.touchWrite(e, i, j)
	e.Compute(2 * b * b * b)
}

// Verify reconstructs A from the computed L and U factors and compares it
// against the original matrix.
func (w *luWork) Verify() error {
	n := w.n
	maxErr := 0.0
	// Sample rows to keep verification O(n^2 * samples).
	step := n / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		for j := 0; j < n; j++ {
			sum := 0.0
			kmax := min(i, j)
			for k := 0; k < kmax; k++ {
				sum += w.at(i, k) * w.at(k, j) // L(i,k)*U(k,j)
			}
			var v float64
			if i <= j {
				v = sum + w.at(i, j) // diagonal of L is 1
			} else {
				v = sum + w.at(i, j)*w.at(j, j)
			}
			if d := math.Abs(v - w.origAt(i, j)); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 1e-6*float64(n) {
		return fmt.Errorf("lu: reconstruction error %g too large", maxErr)
	}
	return nil
}

func (w *luWork) origAt(i, j int) float64 { return w.orig[w.idx(i, j)] }
