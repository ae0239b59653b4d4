package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapTotalOrder drives the 4-ary heap with a large randomized
// interleaving of pushes and pops and checks that events drain in exact
// (time, seq) total order — including FIFO order for same-cycle ties, which
// the machine model relies on for bit-for-bit reproducibility.
func TestHeapTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()

	type stamp struct {
		at  Time
		seq uint64
	}
	var fired []stamp

	// Schedule in clustered batches so many events share a cycle (ties) and
	// interleave pops so the heap is exercised at many sizes, not just one
	// build-then-drain pass.
	pending := 0
	for round := 0; round < 200; round++ {
		batch := rng.Intn(32) + 1
		for i := 0; i < batch; i++ {
			// Cluster times into few buckets to force same-cycle ties.
			at := e.Now() + Time(rng.Intn(8))
			var ev stamp
			e.At(at, func() {
				ev.at = e.Now()
				fired = append(fired, ev)
			})
			// Engine assigns seq internally; mirror it (seq is incremented
			// once per At call, starting from 1).
			ev.seq = e.seq
			ev.at = at
			pending++
		}
		drain := rng.Intn(pending + 1)
		for i := 0; i < drain; i++ {
			if !e.Step() {
				t.Fatalf("round %d: Step returned false with %d pending", round, pending)
			}
			pending--
		}
	}
	for e.Step() {
	}

	if len(fired) == 0 {
		t.Fatal("no events fired")
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		a, b := fired[i], fired[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	}) {
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("order violation at %d: (%d,%d) fired before (%d,%d)",
					i, a.at, a.seq, b.at, b.seq)
			}
		}
	}
}

// TestHeapSameCycleFIFO checks the tie-break path directly: a burst of
// events all scheduled for the same cycle must execute in insertion order.
func TestHeapSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	const n = 257 // not a power of the heap arity: exercises ragged last rows
	var got []int
	for i := 0; i < n; i++ {
		i := i
		e.At(10, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle FIFO violated at position %d: got event %d", i, v)
		}
	}
}

// TestHeapSlabReuse checks that the heap's backing array is reused: after
// reaching steady state, schedule/step cycles must not grow the slab.
func TestHeapSlabReuse(t *testing.T) {
	e := NewEngine()
	var fire func()
	rng := rand.New(rand.NewSource(7))
	fire = func() { e.After(Time(rng.Intn(16)+1), fire) }
	const depth = 512
	for i := 0; i < depth; i++ {
		e.At(Time(rng.Intn(16)), fire)
	}
	// Warm up to high-water mark.
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	capBefore := cap(e.events)
	for i := 0; i < 100_000; i++ {
		e.Step()
	}
	if cap(e.events) != capBefore {
		t.Fatalf("slab grew in steady state: cap %d -> %d", capBefore, cap(e.events))
	}
	if e.MaxPending() < depth {
		t.Fatalf("MaxPending %d below steady-state depth %d", e.MaxPending(), depth)
	}
}

// TestHeapScheduleStepAllocFree asserts the scheduling hot loops are
// allocation-free at steady state in the three shapes the BenchmarkEngine*
// functions time: the rank machinery added for sharded clusters must cost
// serial engines nothing (events carry a nil rank and the (time, seq) path
// is unchanged), and once the slab reaches its high-water mark no shape may
// allocate at all.
func TestHeapScheduleStepAllocFree(t *testing.T) {
	stepN := func(e *Engine, n int) {
		for i := 0; i < n; i++ {
			e.Step()
		}
	}
	for _, tc := range []struct {
		name string
		// prime fills the engine's queue and returns a function that
		// executes at least n events of the shape.
		prime func(e *Engine) func(n int)
	}{
		{"schedule-step", func(e *Engine) func(n int) {
			// Every event re-arms itself a few cycles out.
			rng := rand.New(rand.NewSource(1))
			var fire func()
			fire = func() { e.After(Time(rng.Intn(64)+1), fire) }
			for i := 0; i < 1024; i++ {
				e.At(Time(rng.Intn(64)), fire)
			}
			return func(n int) { stepN(e, n) }
		}},
		{"mixed-horizon", func(e *Engine) func(n int) {
			// One re-arm in eight lands 10 000-109 999 cycles out.
			rng := rand.New(rand.NewSource(2))
			var fire func()
			fire = func() {
				if rng.Intn(8) == 0 {
					e.After(Time(rng.Intn(100_000)+10_000), fire)
				} else {
					e.After(Time(rng.Intn(16)+1), fire)
				}
			}
			for i := 0; i < 4096; i++ {
				e.At(Time(rng.Intn(64)), fire)
			}
			return func(n int) { stepN(e, n) }
		}},
		{"same-cycle-burst", func(e *Engine) func(n int) {
			// 64 events share each cycle.
			nop := func() {}
			return func(n int) {
				for done := 0; done < n; done += 64 {
					at := e.Now() + 1
					for j := 0; j < 64; j++ {
						e.At(at, nop)
					}
					stepN(e, 64)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			run := tc.prime(e)
			const events = 10_000
			// AllocsPerRun's warm-up call takes the slab to its high-water
			// mark; one measured run makes the result an exact count.
			if allocs := testing.AllocsPerRun(1, func() { run(events) }); allocs != 0 {
				t.Fatalf("%.0f allocations in %d steady-state events", allocs, events)
			}
			if e.Executed() < 2*events {
				t.Fatalf("executed %d events, want at least %d", e.Executed(), 2*events)
			}
		})
	}
}

// TestHeapPoppedSlotCleared checks that pop zeroes the vacated tail slot so
// completed closures are not pinned by the slab.
func TestHeapPoppedSlotCleared(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	e.Step()
	e.Step()
	for i := 0; i < cap(e.events); i++ {
		ev := e.events[:cap(e.events)][i]
		if ev.fn != nil {
			t.Fatalf("slab slot %d still holds a closure after drain", i)
		}
	}
}
