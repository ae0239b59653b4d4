package prog

import (
	"runtime"
	"testing"
	"time"
)

// num returns the number a test program gave o: a load's address or a
// lock's ID.
func num(o *Op) int {
	if o.Kind == Read || o.Kind == Write {
		return int(o.Addr)
	}
	return o.ID
}

// wantNext takes p's next operation and requires it to be kind k carrying
// number n.
func wantNext(t *testing.T, p *Program, k Kind, n int) *Op {
	t.Helper()
	o := p.Next()
	if o.Kind != k || (k != Done && num(o) != n) {
		t.Fatalf("Next = %v %d, want %v %d", o.Kind, num(o), k, n)
	}
	return o
}

func TestCoroutineHandsOffInOrder(t *testing.T) {
	var trace []int
	p := Start(0, 0, func(e *Env) {
		for i := 1; i <= 3; i++ {
			trace = append(trace, -i) // program side
			e.Lock(i)
		}
	})
	defer p.Stop()
	for want := 1; want <= 3; want++ {
		wantNext(t, p, Lock, want)
		trace = append(trace, want) // simulator side
	}
	wantNext(t, p, Done, 0)
	want := []int{-1, 1, -2, 2, -3, 3}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", trace, want)
		}
	}
}

func TestCoroutineStopUnwindsParkedProgram(t *testing.T) {
	unwound, ranOn := false, false
	p := Start(0, 0, func(e *Env) {
		defer func() { unwound = true }()
		e.Barrier()
		ranOn = true
	})
	wantNext(t, p, Barrier, 0)
	p.Stop()
	if !unwound || ranOn {
		t.Fatalf("after Stop: deferred calls ran = %v, body continued = %v; want true, false", unwound, ranOn)
	}
	p.Stop() // idempotent
}

func TestCoroutineStopBeforeStart(t *testing.T) {
	ran := false
	p := Start(0, 0, func(*Env) { ran = true })
	p.Stop()
	if ran {
		t.Fatal("a program stopped before its first Next ran its body")
	}
}

func TestCoroutinePanicReachesNext(t *testing.T) {
	p := Start(0, 0, func(*Env) { panic("program bug") })
	defer p.Stop()
	defer func() {
		if r := recover(); r != "program bug" {
			t.Fatalf("recovered %v, want the program's panic value", r)
		}
	}()
	p.Next()
	t.Fatal("Next returned normally from a panicking program")
}

// TestPutParksOnlyAtTheLimit checks that loads and stores switch to the
// simulator only at the run-ahead limit; TestCoroutineHandsOffInOrder
// checks that synchronization always switches.
func TestPutParksOnlyAtTheLimit(t *testing.T) {
	issued := 0 // loads whose Read has returned
	p := Start(0, 0, func(e *Env) {
		for i := 1; i <= 3*runAheadLimit; i++ {
			e.Read(uint64(i))
			issued = i
		}
	})
	defer p.Stop()
	for batch := 0; batch < 3; batch++ {
		for i := 1; i <= runAheadLimit; i++ {
			want := batch*runAheadLimit + i
			wantNext(t, p, Read, want)
			// The limit-th Read of a batch parked before returning, and
			// the program does not run again while operations are
			// buffered.
			if wantIssued := (batch+1)*runAheadLimit - 1; issued != wantIssued {
				t.Fatalf("after taking op %d the program has returned from %d Reads, want %d",
					want, issued, wantIssued)
			}
		}
	}
	wantNext(t, p, Done, 0)
}

// TestOpsInIssueOrder mixes stores and locks so that batches end both at
// the limit and at a synchronization operation, and checks every
// operation comes out once, in order.
func TestOpsInIssueOrder(t *testing.T) {
	const n = 5*runAheadLimit + 3
	sync := func(i int) bool { return i%(runAheadLimit/2+5) == 0 }
	p := Start(0, 0, func(e *Env) {
		for i := 1; i <= n; i++ {
			if sync(i) {
				e.Unlock(i)
			} else {
				e.Write(uint64(i))
			}
		}
	})
	defer p.Stop()
	for want := 1; want <= n; want++ {
		k := Write
		if sync(want) {
			k = Unlock
		}
		wantNext(t, p, k, want)
	}
	wantNext(t, p, Done, 0)
}

func TestCodeAfterYieldWaitsForEarlierOps(t *testing.T) {
	after := false
	p := Start(0, 0, func(e *Env) {
		e.Read(1)
		e.Read(2)
		e.Lock(3)
		after = true
		e.Read(4)
	})
	defer p.Stop()
	for want := 1; want <= 3; want++ {
		k := Read
		if want == 3 {
			k = Lock
		}
		wantNext(t, p, k, want)
		if after {
			t.Fatalf("code after Lock(3) ran once the simulator had taken op %d", want)
		}
	}
	wantNext(t, p, Read, 4)
	if !after {
		t.Fatal("code after Lock(3) did not run before the simulator took op 4")
	}
}

// TestComputeRidesOnNextOp checks that Compute charges the next operation
// with its cycles and its number of calls, that n <= 0 charges nothing,
// and that compute after the last operation rides on Done.
func TestComputeRidesOnNextOp(t *testing.T) {
	p := Start(3, 1, func(e *Env) {
		if e.ID() != 3 || e.Node() != 1 {
			t.Errorf("Env is processor %d of node %d, want 3 of 1", e.ID(), e.Node())
		}
		e.Read(1)
		e.Compute(10)
		e.Compute(0)
		e.Compute(-5)
		e.Compute(7)
		e.Write(2)
		e.Compute(4)
		e.Barrier()
		e.Compute(500)
	})
	defer p.Stop()
	for _, want := range []struct {
		k           Kind
		n           int
		comp, calls int
	}{
		{Read, 1, 0, 0},
		{Write, 2, 17, 2},
		{Barrier, 0, 4, 1},
		{Done, 0, 500, 1},
	} {
		o := wantNext(t, p, want.k, want.n)
		if o.Comp != int64(want.comp) || o.Calls != want.calls {
			t.Fatalf("%v carries %d cycles from %d calls, want %d from %d",
				o.Kind, o.Comp, o.Calls, want.comp, want.calls)
		}
	}
}

func TestStopUnwindsProgramWithBufferedOps(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound, ranOn := false, false
	p := Start(0, 0, func(e *Env) {
		defer func() { unwound = true }()
		for i := 1; i <= runAheadLimit; i++ {
			e.Read(uint64(i))
		}
		ranOn = true
	})
	wantNext(t, p, Read, 1)
	if n := len(p.buf) - p.head; n != runAheadLimit-1 {
		t.Fatalf("%d operations buffered, want %d", n, runAheadLimit-1)
	}
	p.Stop()
	if !unwound || ranOn {
		t.Fatalf("after Stop: deferred calls ran = %v, body continued = %v; want true, false", unwound, ranOn)
	}
	if n := len(p.buf) - p.head; n != 0 {
		t.Fatalf("%d operations still buffered after Stop", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Stop, %d before Start", n, before)
	}
}

// TestPanicAfterBufferedOps checks that a panic comes out of the Next that
// ran the program, in its first batch and in a later one, and that the
// operations buffered before it are not taken.
func TestPanicAfterBufferedOps(t *testing.T) {
	for _, taken := range []int{0, runAheadLimit} {
		p := Start(0, 0, func(e *Env) {
			for i := 1; i <= taken+2; i++ {
				e.Read(uint64(i))
			}
			panic("program bug")
		})
		for want := 1; want <= taken; want++ {
			wantNext(t, p, Read, want)
		}
		r := recovered(func() { p.Next() })
		p.Stop()
		if r != "program bug" {
			t.Fatalf("after %d ops: Next panicked with %v, want the program's panic value", taken, r)
		}
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}
