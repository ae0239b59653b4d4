package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("radix", func(size SizeClass, nprocs int) Workload {
		n := 65536
		switch size {
		case SizeTest:
			n = 2048
		case SizeSmall:
			n = 16384
		case SizeLarge:
			n = 131072
		}
		return &radixWork{n: n, radix: 128, keyBits: 14, nprocs: nprocs}
	})
}

// radixWork is the SPLASH-2 integer radix sort: each pass histograms a
// digit locally, computes global rank offsets from all processors'
// histograms, and permutes every key to its destination in the other
// array. The permutation phase writes keys to arbitrary (mostly remote)
// lines and is the all-to-all communication that makes Radix one of the
// paper's highest-RCCPI applications; its communication rate is constant
// in the data size, as the paper notes.
type radixWork struct {
	spanner
	n       int
	radix   int
	keyBits int
	nprocs  int

	keys  []uint32 // current array
	other []uint32
	orig  []uint32
	// hist[p*radix+d] is processor p's count of digit d for the current
	// pass.
	hist []int

	keysBase, otherBase, histBase uint64
}

func (w *radixWork) Name() string { return "radix" }

func (w *radixWork) Setup(m *machine.Machine) error {
	if w.n%w.nprocs != 0 {
		// Round down to a multiple for even ownership.
		w.n -= w.n % w.nprocs
	}
	if w.n == 0 {
		return fmt.Errorf("radix: no keys for %d procs", w.nprocs)
	}
	w.init(m)
	w.keys = make([]uint32, w.n)
	w.other = make([]uint32, w.n)
	w.hist = make([]int, w.nprocs*w.radix)
	rng := rand.New(rand.NewSource(13 + w.seed))
	mask := uint32(1)<<w.keyBits - 1
	for i := range w.keys {
		w.keys[i] = rng.Uint32() & mask
	}
	w.orig = append([]uint32(nil), w.keys...)
	w.keysBase = m.Space.Alloc(w.n * 4)
	w.otherBase = m.Space.Alloc(w.n * 4)
	w.histBase = m.Space.Alloc(w.nprocs * w.radix * 8)
	return nil
}

func (w *radixWork) keyAddr(base uint64, i int) uint64 { return base + uint64(i*4) }

func (w *radixWork) histAddr(p, d int) uint64 {
	return w.histBase + uint64((p*w.radix+d)*8)
}

func (w *radixWork) Body(e *prog.Env) {
	me := e.ID()
	lo, hi := blockRange(w.n, w.nprocs, me)
	digits := (w.keyBits + bitsOf(w.radix) - 1) / bitsOf(w.radix)
	src, dst := w.keys, w.other
	srcBase, dstBase := w.keysBase, w.otherBase

	for pass := 0; pass < digits; pass++ {
		shift := uint(pass * bitsOf(w.radix))
		// Phase 1: local histogram (sequential read of our key block).
		counts := make([]int, w.radix)
		for i := lo; i < hi; i++ {
			d := int(src[i]>>shift) & (w.radix - 1)
			counts[d]++
		}
		w.readSpan(e, w.keyAddr(srcBase, lo), (hi-lo)*4)
		e.Compute(6 * (hi - lo))
		// Publish our histogram.
		copy(w.hist[me*w.radix:], counts)
		w.writeSpan(e, w.histAddr(me, 0), w.radix*8)
		e.Barrier()

		// Phase 2: compute our rank offsets by reading every processor's
		// histogram (communication: P x radix shared counters).
		offsets := make([]int, w.radix)
		pos := 0
		for d := 0; d < w.radix; d++ {
			for p := 0; p < w.nprocs; p++ {
				if p == me {
					offsets[d] = pos
				}
				pos += w.hist[p*w.radix+d]
			}
		}
		for p := 0; p < w.nprocs; p++ {
			if p != me {
				w.readSpan(e, w.histAddr(p, 0), w.radix*8)
			}
		}
		e.Compute(2 * w.radix * w.nprocs)
		e.Barrier()

		// Phase 3: permute our keys to their global destinations
		// (scattered, mostly remote writes: the dominant communication).
		for i := lo; i < hi; i++ {
			d := int(src[i]>>shift) & (w.radix - 1)
			dest := offsets[d]
			offsets[d]++
			dst[dest] = src[i]
			e.Read(w.keyAddr(srcBase, i))
			e.Write(w.keyAddr(dstBase, dest))
			e.Compute(40)
		}
		e.Barrier()

		src, dst = dst, src
		srcBase, dstBase = dstBase, srcBase
	}
	// Record which array holds the result (same decision on every proc).
	if me == 0 {
		if digits%2 == 1 {
			w.keys, w.other = w.other, w.keys
		}
	}
	e.Barrier()
}

func bitsOf(radix int) int {
	b := 0
	for 1<<b < radix {
		b++
	}
	return b
}

// Verify checks the output is a sorted permutation of the input.
func (w *radixWork) Verify() error {
	if !sort.SliceIsSorted(w.keys, func(i, j int) bool { return w.keys[i] < w.keys[j] }) {
		return fmt.Errorf("radix: output not sorted")
	}
	want := append([]uint32(nil), w.orig...)
	got := append([]uint32(nil), w.keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("radix: output is not a permutation of the input (index %d)", i)
		}
	}
	return nil
}
