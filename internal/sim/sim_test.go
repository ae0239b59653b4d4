package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		e.At(d, Func(func() { got = append(got, d) }))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("final time = %d, want 5", e.Now())
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, Func(func() { got = append(got, i) }))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want insertion order", got)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.After(10, Func(func() {
		e.After(5, Func(func() { fired = e.Now() }))
	}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 15 {
		t.Fatalf("nested After fired at %d, want 15", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, Func(func() {}))
	}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, Func(func() {}))
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, Func(func() { ran++; e.Stop() }))
	e.At(2, Func(func() { ran++ }))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 100
	e.At(50, Func(func() { e.After(200, Func(func() {})) }))
	if _, err := e.Run(); err == nil {
		t.Fatal("expected limit error")
	}
	if e.Now() != 50 {
		t.Fatalf("time advanced past limit trigger: %d", e.Now())
	}
}

func TestEngineLimitNotHitWhenQuiet(t *testing.T) {
	e := NewEngine()
	e.Limit = 100
	e.At(99, Func(func() {}))
	if _, err := e.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestEngineRunChecked pins the serial progress hook: onCheck sees every
// stepCap-th executed event count, and its error aborts the run unchanged.
func TestEngineRunChecked(t *testing.T) {
	stop := errors.New("stop")
	for _, tc := range []struct {
		stepCap, failAt uint64
		want            []uint64
		wantErr         error
	}{
		{stepCap: 0, want: nil},
		{stepCap: 4, want: []uint64{4, 8}},
		{stepCap: 3, failAt: 6, want: []uint64{3, 6}, wantErr: stop},
	} {
		e := NewEngine()
		for i := 0; i < 10; i++ {
			e.At(Time(i), Func(func() {}))
		}
		var got []uint64
		_, err := e.RunChecked(tc.stepCap, func(executed uint64) error {
			got = append(got, executed)
			if executed == tc.failAt {
				return stop
			}
			return nil
		})
		if err != tc.wantErr || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("stepCap=%d: checks at %v err %v, want %v err %v", tc.stepCap, got, err, tc.want, tc.wantErr)
		}
		if tc.wantErr != nil && e.Executed() != tc.failAt {
			t.Errorf("stepCap=%d: %d events ran after the failed check at %d", tc.stepCap, e.Executed(), tc.failAt)
		}
	}
}

// TestEngineDeterminism runs the same randomized schedule twice and checks
// execution transcripts match exactly.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var transcript []int
		var rec func(id, depth int)
		rec = func(id, depth int) {
			transcript = append(transcript, id)
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					child := id*10 + i
					e.After(Time(rng.Intn(20)), Func(func() { rec(child, depth+1) }))
				}
			}
		}
		for i := 0; i < 10; i++ {
			i := i
			e.At(Time(rng.Intn(50)), Func(func() { rec(i, 0) }))
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return transcript
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transcripts diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceFIFOAndStats(t *testing.T) {
	e := NewEngine()
	r := MakeResource(e)
	var starts []Time
	e.At(0, Func(func() {
		r.Acquire(10, Func(func() { starts = append(starts, e.Now()) }))
		r.Acquire(10, Func(func() { starts = append(starts, e.Now()) }))
	}))
	e.At(5, Func(func() {
		r.Acquire(10, Func(func() { starts = append(starts, e.Now()) }))
	}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 20}
	for i, s := range starts {
		if s != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
	if r.Busy() != 30 {
		t.Fatalf("busy = %d, want 30", r.Busy())
	}
}

func TestResourceAcquireAt(t *testing.T) {
	e := NewEngine()
	r := MakeResource(e)
	var start Time = -1
	e.At(0, Func(func() {
		r.AcquireAt(100, 10, Func(func() { start = e.Now() }))
	}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 100 {
		t.Fatalf("deferred acquire started at %d, want 100", start)
	}
}

// countStep is a typed action over a counter, the form the model gives
// its steps.
type countStep int

func (c *countStep) Fire() { *c++ }

// TestTypedActionAllocFree pins that scheduling and firing a typed action
// allocates nothing, through every entry point: At, After, Resource's
// Acquire and AcquireAt, and DeferTo (inline on a serial engine).
func TestTypedActionAllocFree(t *testing.T) {
	e := NewEngine()
	r := MakeResource(e)
	n := new(countStep)
	round := func() {
		e.At(e.Now(), n)
		e.After(300, n) // past the ring's span: through the far heap
		r.Acquire(2, n)
		r.AcquireAt(e.Now()+1, 2, n)
		e.DeferTo(e, n)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round() // the first events reserve the slab and the far heap
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of typed actions allocated %v objects, want 0", allocs)
	}
	if *n != 5*102 {
		t.Fatalf("actions fired %d times, want %d", *n, 5*102)
	}
}

// Property: for any set of (arrival, hold) pairs issued in arrival order,
// the resource grants in FIFO order with no overlap and no idle-time
// inversion (a grant never starts before the later of its arrival and the
// previous grant's end).
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(holds []uint8) bool {
		e := NewEngine()
		r := MakeResource(e)
		type grant struct{ start, end Time }
		var grants []grant
		at := Time(0)
		for _, h := range holds {
			h := Time(h%50) + 1
			at += Time(h % 7)
			thisAt := at
			e.At(thisAt, Func(func() {
				r.Acquire(h, Func(func() {
					grants = append(grants, grant{e.Now(), e.Now() + h})
				}))
			}))
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		var prevEnd Time
		for _, g := range grants {
			if g.start < prevEnd {
				return false
			}
			prevEnd = g.end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeNanoseconds(t *testing.T) {
	if Time(200).Nanoseconds() != 1000 {
		t.Fatalf("200 cycles should be 1000 ns, got %v", Time(200).Nanoseconds())
	}
}
