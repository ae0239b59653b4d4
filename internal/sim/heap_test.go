package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapTotalOrder drives the calendar queue with a large randomized
// interleaving of schedules and steps and checks that events drain in exact
// (time, seq) total order — including FIFO order for same-cycle ties, which
// the machine model relies on for bit-for-bit reproducibility — that every
// event fires at its scheduled time, and that Pending and MaxPending track
// the queue depth. The horizon mixes cover the ring alone, both sides of
// its span, far events migrating into the ring, and direct inserts into a
// bucket that a far event migrated into.
func TestHeapTotalOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		// at returns the time of the next event to schedule.
		at func(now Time, rng *rand.Rand) Time
	}{
		{"near", func(now Time, rng *rand.Rand) Time {
			// Few distinct cycles force same-cycle ties.
			return now + Time(rng.Intn(8))
		}},
		{"straddle-span", func(now Time, rng *rand.Rand) Time {
			return now + wheelSpan - 2 + Time(rng.Intn(5))
		}},
		{"far-mixed", func(now Time, rng *rand.Rand) Time {
			if rng.Intn(4) == 0 {
				return now + Time(rng.Intn(100_000)+10_000)
			}
			return now + Time(rng.Intn(8))
		}},
		{"migrated-bucket-insert", func() func(Time, *rand.Rand) Time {
			// Half the events are far; the other half join a far event's
			// cycle once it has come within the span, so they land in a
			// bucket that already holds the migrated event.
			var farTimes []Time
			return func(now Time, rng *rand.Rand) Time {
				for len(farTimes) > 0 && farTimes[0] < now {
					farTimes = farTimes[1:]
				}
				near := 0
				for near < len(farTimes) && farTimes[near]-now < wheelSpan {
					near++
				}
				if near > 0 && rng.Intn(2) == 0 {
					return farTimes[rng.Intn(near)]
				}
				at := now + wheelSpan + Time(rng.Intn(4))
				farTimes = append(farTimes, at)
				sort.Slice(farTimes, func(i, j int) bool { return farTimes[i] < farTimes[j] })
				return at
			}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			e := NewEngine()

			type stamp struct {
				at, ran Time
				seq     uint64
			}
			var fired []stamp

			// Interleave steps with scheduling so the queue is exercised
			// at many depths and times, not just one build-then-drain pass.
			pending, maxPending := 0, 0
			step := func() {
				if !e.Step() {
					t.Fatalf("Step returned false with %d pending", pending)
				}
				pending--
			}
			for round := 0; round < 200; round++ {
				batch := rng.Intn(32) + 1
				for i := 0; i < batch; i++ {
					s := &stamp{at: tc.at(e.Now(), rng)}
					e.At(s.at, func() {
						s.ran = e.Now()
						fired = append(fired, *s)
					})
					// Engine assigns seq internally; mirror it (seq is
					// incremented once per At call, starting from 1).
					s.seq = e.seq
					if pending++; pending > maxPending {
						maxPending = pending
					}
				}
				drain := rng.Intn(pending + 1)
				for i := 0; i < drain; i++ {
					step()
				}
				if e.Pending() != pending {
					t.Fatalf("round %d: Pending() = %d, want %d", round, e.Pending(), pending)
				}
			}
			for pending > 0 {
				step()
			}
			if e.Step() {
				t.Fatal("Step ran an event past the drained queue")
			}
			if e.MaxPending() != maxPending {
				t.Fatalf("MaxPending() = %d, want %d", e.MaxPending(), maxPending)
			}

			if len(fired) == 0 {
				t.Fatal("no events fired")
			}
			for i, s := range fired {
				if s.ran != s.at {
					t.Fatalf("event %d (seq %d) scheduled at %d fired at %d", i, s.seq, s.at, s.ran)
				}
				if i == 0 {
					continue
				}
				if a := fired[i-1]; s.at < a.at || (s.at == a.at && s.seq < a.seq) {
					t.Fatalf("order violation at %d: (%d,%d) fired before (%d,%d)",
						i, a.at, a.seq, s.at, s.seq)
				}
			}
		})
	}
}

// TestHeapSameCycleFIFO checks the tie-break path directly: a burst of
// events all scheduled for the same cycle must execute in insertion order.
func TestHeapSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	const n = 257 // more events than the ring has buckets, all in one
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

// TestHeapSlabReuse checks that the event slab is reused: after reaching
// steady state, schedule/step cycles must grow neither the slab nor the far
// heap.
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
	slabCap, farCap := cap(e.slab), cap(e.far)
	for i := 0; i < 100_000; i++ {
		e.Step()
	}
	if cap(e.slab) != slabCap || cap(e.far) != farCap {
		t.Fatalf("queue grew in steady state: slab cap %d -> %d, far cap %d -> %d",
			slabCap, cap(e.slab), farCap, cap(e.far))
	}
	if e.MaxPending() < depth {
		t.Fatalf("MaxPending %d below steady-state depth %d", e.MaxPending(), depth)
	}
}

// TestHeapScheduleStepAllocFree asserts the scheduling hot loops are
// allocation-free at steady state in the four shapes the BenchmarkEngine*
// functions time: the rank machinery for sharded clusters must cost serial
// engines nothing (events carry a nil rank), and once the slab reaches its
// high-water mark no shape may allocate at all — far events included, since
// the far heap's capacity follows the slab's.
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
		{"far-migration", func(e *Engine) func(n int) {
			// Every re-arm lands past the ring's span and migrates in.
			rng := rand.New(rand.NewSource(3))
			var fire func()
			fire = func() { e.After(Time(rng.Intn(1_701)+300), fire) }
			for i := 0; i < 1024; i++ {
				e.At(Time(rng.Intn(2_000)), fire)
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

// TestHeapPoppedSlotCleared checks that taking an event zeroes its slab
// node, for ring and far events alike, so completed closures are not pinned
// by the slab.
func TestHeapPoppedSlotCleared(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	e.At(2, func() {})
	e.At(10*wheelSpan, func() {})
	if len(e.far) != 1 {
		t.Fatalf("far heap holds %d events, want 1", len(e.far))
	}
	for e.Step() {
	}
	if e.Executed() != 3 {
		t.Fatalf("executed %d events, want 3", e.Executed())
	}
	for i, n := range e.slab[:cap(e.slab)] {
		if n.ev.fn != nil || n.ev.rank != nil {
			t.Fatalf("slab node %d still holds an event after drain", i)
		}
	}
}
