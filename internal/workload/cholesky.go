package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("cholesky", func(size SizeClass, nprocs int) Workload {
		n := 192
		switch size {
		case SizeTest:
			n = 48
		case SizeSmall:
			n = 96
		case SizeLarge:
			n = 288
		}
		return &cholWork{n: n, nprocs: nprocs}
	})
}

// cholWork substitutes SPLASH-2's blocked sparse Cholesky with a
// supernodal right-looking dense Cholesky factorization driven by a
// lock-protected task queue over panels of uneven widths. The substitution
// preserves what the paper attributes to Cholesky: moderate communication
// (panels are read by many updaters right after being written) combined
// with high load imbalance (uneven panel widths and a serializing task
// queue), which the paper singles out as inflating Cholesky's execution
// time on both HWC and PPC.
type cholWork struct {
	spanner
	n      int
	nprocs int

	widths []int // panel widths (uneven on purpose)
	starts []int // first column of each panel

	a    []float64 // column-major lower triangle (full storage)
	orig []float64
	base uint64

	taskBase uint64 // shared task counters, one line per panel
	next     []int  // per-panel update cursor (task queue state)
}

func (w *cholWork) Name() string { return "cholesky" }

func (w *cholWork) Setup(m *machine.Machine) error {
	w.init(m)
	// Uneven panel widths cycling 8/24/16 columns.
	cycle := []int{8, 24, 16}
	for c, i := 0, 0; c < w.n; i++ {
		width := cycle[i%len(cycle)]
		if c+width > w.n {
			width = w.n - c
		}
		w.widths = append(w.widths, width)
		w.starts = append(w.starts, c)
		c += width
	}
	w.a = make([]float64, w.n*w.n)
	rng := rand.New(rand.NewSource(23 + w.seed))
	// Symmetric positive definite: A = B^T B + n*I (computed directly).
	b := make([]float64, w.n*w.n)
	for i := range b {
		b[i] = rng.Float64() - 0.5
	}
	for i := 0; i < w.n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k < w.n; k++ {
				s += b[k*w.n+i] * b[k*w.n+j]
			}
			if i == j {
				s += float64(w.n)
			}
			w.a[i*w.n+j] = s
			w.a[j*w.n+i] = s
		}
	}
	w.orig = append([]float64(nil), w.a...)
	w.base = m.Space.Alloc(w.n * w.n * 8)
	w.taskBase = m.Space.Alloc(len(w.widths) * int(w.ls))
	w.next = make([]int, len(w.widths))
	return nil
}

func (w *cholWork) at(i, j int) float64     { return w.a[i*w.n+j] }
func (w *cholWork) set(i, j int, v float64) { w.a[i*w.n+j] = v }

// panelAddr returns the simulated address of column j's storage below row
// r0 (column-major panels: column j occupies a contiguous span).
func (w *cholWork) colAddr(j, r0 int) uint64 {
	return w.base + uint64((j*w.n+r0)*8)
}

func (w *cholWork) Body(e *prog.Env) {
	me := e.ID()
	np := len(w.widths)
	for k := 0; k < np; k++ {
		// cdiv: panel k's owner factors it while everyone else waits — the
		// serial bottleneck that, with the uneven panel widths, produces
		// Cholesky's characteristic load imbalance.
		if k%w.nprocs == me {
			w.factorPanel(e, k)
			w.next[k] = k + 1 // seed the update queue before the barrier
		}
		e.Barrier()
		// cmod: update panels j > k, self-scheduled through a
		// lock-protected task queue.
		for {
			e.Lock(2000 + k)
			j := w.next[k]
			w.next[k] = j + 1
			e.Read(w.taskBase + uint64(k)*w.ls)
			e.Write(w.taskBase + uint64(k)*w.ls)
			e.Unlock(2000 + k)
			if j >= np {
				break
			}
			w.updatePanel(e, j, k)
		}
		e.Barrier()
	}
}

// factorPanel performs the dense Cholesky factorization of panel k's
// diagonal block and scales the sub-diagonal rows.
func (w *cholWork) factorPanel(e *prog.Env, k int) {
	c0 := w.starts[k]
	width := w.widths[k]
	for j := c0; j < c0+width; j++ {
		d := w.at(j, j)
		for t := c0; t < j; t++ {
			d -= w.at(j, t) * w.at(j, t)
		}
		d = math.Sqrt(d)
		w.set(j, j, d)
		for i := j + 1; i < w.n; i++ {
			v := w.at(i, j)
			for t := c0; t < j; t++ {
				v -= w.at(i, t) * w.at(j, t)
			}
			w.set(i, j, v/d)
		}
	}
	for j := c0; j < c0+width; j++ {
		w.readSpan(e, w.colAddr(j, c0), (w.n-c0)*8)
		w.writeSpan(e, w.colAddr(j, c0), (w.n-c0)*8)
	}
	e.Compute(width * (w.n - c0) * (w.n - c0) / 2)
}

// updatePanel applies panel k's columns to panel j (right-looking cmod).
func (w *cholWork) updatePanel(e *prog.Env, j, k int) {
	cj, wj := w.starts[j], w.widths[j]
	ck, wk := w.starts[k], w.widths[k]
	for c := cj; c < cj+wj; c++ {
		for t := ck; t < ck+wk; t++ {
			l := w.at(c, t)
			if l == 0 {
				continue
			}
			for i := c; i < w.n; i++ {
				w.set(i, c, w.at(i, c)-w.at(i, t)*l)
			}
		}
	}
	// References: read panel k's columns (shared, just written by the
	// factoring processor), read and write our target panel.
	for t := ck; t < ck+wk; t++ {
		w.readSpan(e, w.colAddr(t, cj), (w.n-cj)*8)
	}
	for c := cj; c < cj+wj; c++ {
		w.readSpan(e, w.colAddr(c, cj), (w.n-cj)*8)
		w.writeSpan(e, w.colAddr(c, cj), (w.n-cj)*8)
	}
	e.Compute(2 * wj * wk * (w.n - cj))
}

// Verify checks L L^T = A on sampled entries.
func (w *cholWork) Verify() error {
	maxErr := 0.0
	step := w.n / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < w.n; i += step {
		for j := 0; j <= i; j++ {
			var s float64
			for t := 0; t <= j; t++ {
				s += w.at(i, t) * w.at(j, t)
			}
			if d := math.Abs(s - w.orig[i*w.n+j]); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 1e-6*float64(w.n) {
		return fmt.Errorf("cholesky: reconstruction error %g", maxErr)
	}
	return nil
}
