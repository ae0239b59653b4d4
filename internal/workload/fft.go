package workload

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("fft", func(size SizeClass, nprocs int) Workload {
		m := 128 // sqrt(n): base 16K complex points
		switch size {
		case SizeTest:
			m = 16
		case SizeSmall:
			m = 64
		case SizeLarge:
			m = 256 // 64K points: 4x the base, matching Figure 9's ratio
		}
		return &fftWork{m: m, nprocs: nprocs}
	})
}

// fftWork is the SPLASH-2 radix-sqrt(n) six-step FFT: the n complex points
// are viewed as an m x m matrix (m = sqrt(n)); the algorithm transposes,
// FFTs every row, multiplies by twiddle factors, transposes, FFTs rows
// again, and transposes back. The three blocked all-to-all transposes are
// the dominant communication (bursty, high-bandwidth), as in the paper.
// Rows are placed at their owners' nodes, matching the paper's
// programmer-optimized placement for FFT.
type fftWork struct {
	spanner
	m      int // matrix side; n = m*m complex points
	nprocs int

	src, dst []complex128
	orig     []complex128
	baseA    uint64
	baseB    uint64
	rowBytes int
}

func (w *fftWork) Name() string { return "fft" }

func (w *fftWork) Setup(m *machine.Machine) error {
	if w.m&(w.m-1) != 0 {
		return fmt.Errorf("fft: m=%d not a power of two", w.m)
	}
	w.init(m)
	n := w.m * w.m
	w.src = make([]complex128, n)
	w.dst = make([]complex128, n)
	rng := rand.New(rand.NewSource(11 + w.seed))
	for i := range w.src {
		w.src[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	w.orig = append([]complex128(nil), w.src...)
	w.rowBytes = w.m * 16 // complex128 = 16 bytes

	// Place each processor's rows on its own node (paper: FFT runs with
	// programmer placement hints).
	nodes := m.Cfg.Nodes
	placeRows := func(page int) int {
		rowsPerPage := m.Cfg.PageSize / w.rowBytes
		if rowsPerPage == 0 {
			rowsPerPage = 1
		}
		row := page * rowsPerPage
		proc := 0
		for p := 0; p < w.nprocs; p++ {
			lo, hi := blockRange(w.m, w.nprocs, p)
			if row >= lo && row < hi {
				proc = p
				break
			}
		}
		return proc * nodes / w.nprocs
	}
	w.baseA = m.Space.AllocPlaced(n*16, placeRows)
	w.baseB = m.Space.AllocPlaced(n*16, placeRows)
	return nil
}

// transpose copies srcArr^T into dstArr for this processor's rows, in
// line-sized column tiles (blocked transpose, as SPLASH-2 does). Reading a
// column of the source touches one line of every source row in the tile:
// this is the all-to-all communication.
func (w *fftWork) transpose(e prog.Env, srcArr, dstArr []complex128, srcBase, dstBase uint64) {
	lo, hi := blockRange(w.m, w.nprocs, e.ID())
	tile := int(w.ls) / 16 // complex elements per line
	for r := lo; r < hi; r++ {
		for c0 := 0; c0 < w.m; c0 += tile {
			// Read the source tile: elements (c0..c0+tile-1, r).
			for c := c0; c < c0+tile && c < w.m; c++ {
				dstArr[r*w.m+c] = srcArr[c*w.m+r]
			}
			// One line read per source row in the tile (column r lives in
			// a different line of each row), one line write to our row.
			for c := c0; c < c0+tile && c < w.m; c++ {
				e.Read(srcBase + uint64((c*w.m+r)*16))
			}
			e.Write(dstBase + uint64((r*w.m+c0)*16))
			e.Compute(2 * tile)
		}
	}
}

// fftRows runs an in-place iterative radix-2 FFT over this processor's
// rows of arr, touching each row's lines and charging the O(m log m)
// butterfly work.
func (w *fftWork) fftRows(e prog.Env, arr []complex128, base uint64) {
	lo, hi := blockRange(w.m, w.nprocs, e.ID())
	logm := 0
	for 1<<logm < w.m {
		logm++
	}
	for r := lo; r < hi; r++ {
		row := arr[r*w.m : (r+1)*w.m]
		fft1d(row)
		w.readSpan(e, base+uint64(r*w.m*16), w.rowBytes)
		w.writeSpan(e, base+uint64(r*w.m*16), w.rowBytes)
		e.Compute(5 * w.m * logm) // ~5 flops per butterfly point
	}
}

// twiddle applies the six-step algorithm's twiddle factors to this
// processor's rows of dst.
func (w *fftWork) twiddle(e prog.Env, arr []complex128, base uint64) {
	lo, hi := blockRange(w.m, w.nprocs, e.ID())
	n := float64(w.m * w.m)
	for r := lo; r < hi; r++ {
		for c := 0; c < w.m; c++ {
			ang := -2 * math.Pi * float64(r) * float64(c) / n
			arr[r*w.m+c] *= cmplx.Exp(complex(0, ang))
		}
		w.readSpan(e, base+uint64(r*w.m*16), w.rowBytes)
		w.writeSpan(e, base+uint64(r*w.m*16), w.rowBytes)
		e.Compute(8 * w.m)
	}
}

func (w *fftWork) Body(e prog.Env) {
	// Step 1: transpose src -> dst.
	w.transpose(e, w.src, w.dst, w.baseA, w.baseB)
	e.Barrier()
	// Step 2: FFT the rows of dst.
	w.fftRows(e, w.dst, w.baseB)
	e.Barrier()
	// Step 3: twiddle.
	w.twiddle(e, w.dst, w.baseB)
	e.Barrier()
	// Step 4: transpose dst -> src.
	w.transpose(e, w.dst, w.src, w.baseB, w.baseA)
	e.Barrier()
	// Step 5: FFT the rows of src.
	w.fftRows(e, w.src, w.baseA)
	e.Barrier()
	// Step 6: transpose src -> dst (final order).
	w.transpose(e, w.src, w.dst, w.baseA, w.baseB)
	e.Barrier()
}

// fft1d is an in-place iterative radix-2 Cooley-Tukey FFT.
func fft1d(a []complex128) {
	n := len(a)
	// Bit reversal.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			wc := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * wc
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				wc *= wl
			}
		}
	}
}

// Verify checks the six-step result against a direct FFT of the original
// input on a sample of output points.
func (w *fftWork) Verify() error {
	n := w.m * w.m
	// The six-step algorithm computes the DFT with the output index
	// factored as k = k2*m + k1; after the final transpose dst holds
	// X[k] in natural order read row-major. Check Parseval's theorem plus
	// a few direct DFT samples.
	var inE, outE float64
	for i := 0; i < n; i++ {
		inE += real(w.orig[i])*real(w.orig[i]) + imag(w.orig[i])*imag(w.orig[i])
		outE += real(w.dst[i])*real(w.dst[i]) + imag(w.dst[i])*imag(w.dst[i])
	}
	if math.Abs(outE/float64(n)-inE) > 1e-6*inE {
		return fmt.Errorf("fft: Parseval mismatch: in=%g out/n=%g", inE, outE/float64(n))
	}
	for _, k := range []int{0, 1, w.m + 3, n / 2} {
		var want complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			want += w.orig[t] * cmplx.Exp(complex(0, ang))
		}
		got := w.dft(k)
		if cmplx.Abs(got-want) > 1e-6*(1+cmplx.Abs(want)) {
			return fmt.Errorf("fft: X[%d] = %v, want %v", k, got, want)
		}
	}
	return nil
}

// dft returns the computed transform value for global index k. The final
// transpose of the six-step algorithm restores natural order: with
// k = k1 + k2*m, step 5 leaves X[k] at src[k1*m + k2] and step 6 moves it
// to dst[k2*m + k1] = dst[k].
func (w *fftWork) dft(k int) complex128 { return w.dst[k] }
