package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
			var seq uint64
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
					e.At(s.at, Func(func() {
						s.ran = e.Now()
						fired = append(fired, *s)
					}))
					// The serial order is At-call order: number the calls.
					seq++
					s.seq = seq
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
		e.At(10, Func(func() { got = append(got, i) }))
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
	var fire Func
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
// allocation-free at steady state in the four stepped shapes the
// BenchmarkEngine* functions time: the rank machinery for sharded clusters
// must cost serial engines nothing (they keep no ranks), and once the slab
// and the far heap reach their high-water marks no shape may allocate at
// all — far events included.
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
			var fire Func
			fire = func() { e.After(Time(rng.Intn(64)+1), fire) }
			for i := 0; i < 1024; i++ {
				e.At(Time(rng.Intn(64)), fire)
			}
			return func(n int) { stepN(e, n) }
		}},
		{"mixed-horizon", func(e *Engine) func(n int) {
			// One re-arm in eight lands 10 000-109 999 cycles out.
			rng := rand.New(rand.NewSource(2))
			var fire Func
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
			var fire Func
			fire = func() { e.After(Time(rng.Intn(1_701)+300), fire) }
			for i := 0; i < 1024; i++ {
				e.At(Time(rng.Intn(2_000)), fire)
			}
			return func(n int) { stepN(e, n) }
		}},
		{"same-cycle-burst", func(e *Engine) func(n int) {
			// 64 events share each cycle.
			nop := Func(func() {})
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

// TestHeapPoppedSlotCleared checks that taking an event clears its slab
// node and popping a far event clears its heap entry, so the objects of
// fired actions are pinned by neither.
func TestHeapPoppedSlotCleared(t *testing.T) {
	e := NewEngine()
	e.At(1, Func(func() {}))
	e.At(2, Func(func() {}))
	e.At(10*wheelSpan, Func(func() {}))
	if len(e.far) != 1 {
		t.Fatalf("far heap holds %d events, want 1", len(e.far))
	}
	for e.Step() {
	}
	if e.Executed() != 3 {
		t.Fatalf("executed %d events, want 3", e.Executed())
	}
	for i, n := range e.slab[:cap(e.slab)] {
		if n.act != nil {
			t.Fatalf("slab node %d still holds an event after drain", i)
		}
	}
	for i, f := range e.far[:cap(e.far)] {
		if f.act != nil || f.rank != nil {
			t.Fatalf("far heap entry %d still holds an event after drain", i)
		}
	}
}

// TestHeapGrowth checks where a deep queue keeps its events: with 200 near
// events and 1,300 far ones pending, the ring slab keeps the capacity its
// first event reserved, and the far heap holds the rest by value, growing by
// doubling from its first reservation (the larger of firstFar and the
// queue's high-water mark, both cases checked), so a steady state allocates
// nothing.
func TestHeapGrowth(t *testing.T) {
	e := NewEngine()
	nop := Func(func() {})
	const near, far = 200, 1300
	var farCaps []int
	first := 0
	for nearN, farN := 0, 0; nearN+farN < near+far; {
		// One event in eight is near.
		if farN == far || nearN < near && (nearN+farN)%8 == 0 {
			e.At(Time(nearN), nop)
			nearN++
			continue
		}
		if first == 0 {
			first = max(firstFar, e.MaxPending())
		}
		e.At(wheelSpan+Time(farN), nop)
		farN++
		if c := cap(e.far); len(farCaps) == 0 || c != farCaps[len(farCaps)-1] {
			farCaps = append(farCaps, c)
		}
	}
	if got := cap(e.slab); got != firstSlab {
		t.Errorf("ring slab capacity %d with %d near events pending, want firstSlab = %d", got, len(e.slab), firstSlab)
	}
	if len(e.far) != far {
		t.Fatalf("far heap holds %d events, want %d", len(e.far), far)
	}
	if farCaps[0] != first {
		t.Errorf("far heap first reserved %d entries, want %d", farCaps[0], first)
	}
	for i := 1; i < len(farCaps); i++ {
		if farCaps[i] != 2*farCaps[i-1] {
			t.Errorf("far heap grew from %d to %d entries, want doubling (all: %v)", farCaps[i-1], farCaps[i], farCaps)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != near+far || e.MaxPending() != near+far {
		t.Fatalf("executed %d events with high-water mark %d, want %d each", e.Executed(), e.MaxPending(), near+far)
	}
	if got := cap(e.slab); got != firstSlab {
		t.Errorf("migrating far events regrew the ring slab to %d nodes", got)
	}

	// A queue already deeper than firstFar reserves its high-water mark.
	e = NewEngine()
	for i := 0; i < 2*firstFar; i++ {
		e.At(Time(i%wheelSpan), nop)
	}
	e.At(wheelSpan, nop)
	if got := cap(e.far); got != 2*firstFar {
		t.Errorf("far heap first reserved %d entries behind %d pending events, want %d", got, 2*firstFar, 2*firstFar)
	}
}

// checkedByStep is RunChecked written as repeated Step calls: the engine's
// one-event-at-a-time semantics that the per-cycle drain must reproduce.
func checkedByStep(e *Engine, stepCap uint64, onCheck func(executed uint64) error) (Time, error) {
	var n uint64
	for e.Step() {
		if n++; n == stepCap && onCheck != nil {
			n = 0
			if err := onCheck(e.Executed()); err != nil {
				return e.Now(), err
			}
		}
	}
	if e.LimitHit() {
		return e.Now(), fmt.Errorf("sim: time limit %d exceeded at t=%d with %d events pending", e.Limit, e.Now(), e.Pending())
	}
	return e.Now(), nil
}

// stepScript is one seeded schedule for TestRunMatchesStep. Every event
// logs itself and makes up to three scheduling draws (a burst schedules
// several events) from one generator, so a run whose order differs also
// draws differently and diverges.
type stepScript struct {
	seed   int64
	budget int    // events scheduled in all
	stopID int    // the event that calls Stop, or -1
	limit  Time   // Engine.Limit
	check  uint64 // onCheck runs every check events
	failAt uint64 // onCheck fails when this many events have run
}

// stepLog is everything TestRunMatchesStep compares between the two ways.
type stepLog struct {
	events   [][2]int64 // (event id, time)
	checks   []uint64
	results  []string // each run call's returned time and error
	executed uint64
	pending  int
	maxPend  int
	now      Time
	limitHit bool
}

// play runs the script through run twice: the first call ends at the
// failing check, and the second resumes the same engine until the queue
// empties, Stop, or the limit.
func (s stepScript) play(run func(*Engine, uint64, func(uint64) error) (Time, error)) stepLog {
	rng := rand.New(rand.NewSource(s.seed))
	e := NewEngine()
	e.Limit = s.limit
	var lg stepLog
	var farTimes []Time // times of far events scheduled, ascending
	ids := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		if ids == s.budget {
			return
		}
		id := ids
		ids++
		if at-e.Now() >= wheelSpan {
			farTimes = append(farTimes, at)
			sort.Slice(farTimes, func(i, j int) bool { return farTimes[i] < farTimes[j] })
		}
		e.At(at, Func(func() {
			now := e.Now()
			lg.events = append(lg.events, [2]int64{int64(id), int64(now)})
			if id == s.stopID {
				e.Stop()
			}
			for k := rng.Intn(4); k > 0; k-- {
				switch r := rng.Intn(20); {
				case r < 5: // at now, during this cycle's drain
					schedule(now)
				case r < 12:
					schedule(now + Time(rng.Intn(16)+1))
				case r < 14: // a same-cycle burst
					at := now + Time(rng.Intn(3))
					for b := rng.Intn(12) + 4; b > 0; b-- {
						schedule(at)
					}
				case r < 17: // far: waits in the heap, then migrates
					schedule(now + wheelSpan + Time(rng.Intn(1_500)))
				default: // join the bucket a far event migrated into
					for len(farTimes) > 0 && farTimes[0] < now {
						farTimes = farTimes[1:]
					}
					in := 0
					for in < len(farTimes) && farTimes[in]-now < wheelSpan {
						in++
					}
					if in > 0 {
						schedule(farTimes[rng.Intn(in)])
					} else {
						schedule(now + Time(rng.Intn(wheelSpan)))
					}
				}
			}
		}))
	}
	for i := 0; i < 8; i++ {
		schedule(Time(rng.Intn(4)))
	}
	onCheck := func(executed uint64) error {
		lg.checks = append(lg.checks, executed)
		if executed == s.failAt {
			return errors.New("check failed")
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		now, err := run(e, s.check, onCheck)
		lg.results = append(lg.results, fmt.Sprint(now, err))
	}
	lg.executed, lg.pending, lg.maxPend = e.Executed(), e.Pending(), e.MaxPending()
	lg.now, lg.limitHit = e.Now(), e.LimitHit()
	return lg
}

// TestRunMatchesStep checks that RunChecked's per-cycle drain runs the
// events repeated Step calls run, in the same order, with the same progress
// checks and the same final state. Seeded schedules mix same-cycle bursts,
// events scheduled at now during a drain, far events that migrate (and near
// events that then join their buckets: a far event always reaches its
// bucket first), an onCheck every few events whose failure ends the first
// run call, and then either a Stop from the middle of a bucket or a Limit
// between two cycles.
func TestRunMatchesStep(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		base := stepScript{seed: seed, budget: 3_000, stopID: -1}
		full := base.play(checkedByStep)
		if len(full.events) != base.budget {
			t.Fatalf("seed %d: the unbounded schedule ran %d of %d events", seed, len(full.events), base.budget)
		}
		rng := rand.New(rand.NewSource(-seed))
		base.check = uint64(rng.Intn(7) + 2)
		base.failAt = base.check * uint64(rng.Intn(40)+1)
		// Stop from an event with another event after it in its bucket,
		// and a Limit strictly between two cycles, both past the check.
		stop, limit := base, base
		for i := len(full.events)/2 + rng.Intn(len(full.events)/4); stop.stopID < 0; i++ {
			if full.events[i][1] == full.events[i+1][1] {
				stop.stopID = int(full.events[i][0])
			}
		}
		for i := len(full.events)/2 + rng.Intn(len(full.events)/4); limit.limit == 0; i++ {
			if a, b := full.events[i][1], full.events[i+1][1]; b-a >= 2 {
				limit.limit = Time(a + 1 + rng.Int63n(b-a-1))
			}
		}
		for _, s := range []stepScript{stop, limit} {
			want, got := s.play(checkedByStep), s.play((*Engine).RunChecked)
			if len(want.checks) == 0 || want.checks[len(want.checks)-1] < s.failAt {
				t.Fatalf("seed %d: the failing check at %d never ran", seed, s.failAt)
			}
			if s.stopID >= 0 && (want.pending == 0 || full.events[want.executed][1] != int64(want.now)) {
				t.Fatalf("seed %d: Stop did not leave events in its bucket", seed)
			}
			if s.limit > 0 && !want.limitHit {
				t.Fatalf("seed %d: limit %d never hit", seed, s.limit)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (stop %d, limit %d): RunChecked and Step differ:\nrun:  %d events, checks %v, %v, executed %d pending %d max %d now %d limit %v\nstep: %d events, checks %v, %v, executed %d pending %d max %d now %d limit %v",
					seed, s.stopID, s.limit,
					len(got.events), got.checks, got.results, got.executed, got.pending, got.maxPend, got.now, got.limitHit,
					len(want.events), want.checks, want.results, want.executed, want.pending, want.maxPend, want.now, want.limitHit)
			}
		}
	}
}
