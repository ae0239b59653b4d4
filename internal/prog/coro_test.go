package prog

import (
	"runtime"
	"testing"
	"time"
)

func TestCoroutineHandsOffInOrder(t *testing.T) {
	var c *Coroutine[int]
	var trace []int
	c = Start(func() {
		for i := 1; i <= 3; i++ {
			trace = append(trace, -i) // program side
			c.Yield(i)
		}
	}, 0)
	defer c.Stop()
	for want := 1; want <= 3; want++ {
		if got := c.Next(); got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
		trace = append(trace, want) // engine side
	}
	if got := c.Next(); got != 0 {
		t.Fatalf("final Next = %d, want the done op 0", got)
	}
	want := []int{-1, 1, -2, 2, -3, 3}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", trace, want)
		}
	}
}

func TestCoroutineStopUnwindsParkedProgram(t *testing.T) {
	var c *Coroutine[int]
	unwound, ranOn := false, false
	c = Start(func() {
		defer func() { unwound = true }()
		c.Yield(1)
		ranOn = true
	}, 0)
	if got := c.Next(); got != 1 {
		t.Fatalf("Next = %d, want 1", got)
	}
	c.Stop()
	if !unwound || ranOn {
		t.Fatalf("after Stop: deferred calls ran = %v, body continued = %v; want true, false", unwound, ranOn)
	}
	c.Stop() // idempotent
}

func TestCoroutineStopBeforeStart(t *testing.T) {
	ran := false
	c := Start(func() { ran = true }, 0)
	c.Stop()
	if ran {
		t.Fatal("a coroutine stopped before its first Next ran its body")
	}
}

func TestCoroutinePanicReachesNext(t *testing.T) {
	c := Start(func() { panic("program bug") }, 0)
	defer c.Stop()
	defer func() {
		if r := recover(); r != "program bug" {
			t.Fatalf("recovered %v, want the program's panic value", r)
		}
	}()
	c.Next()
	t.Fatal("Next returned normally from a panicking program")
}

// TestPutParksOnlyAtTheLimit checks that Put switches to the engine only
// at the run-ahead limit; TestCoroutineHandsOffInOrder checks that Yield
// always switches.
func TestPutParksOnlyAtTheLimit(t *testing.T) {
	var c *Coroutine[int]
	issued := 0 // operations whose Put has returned
	c = Start(func() {
		for i := 1; i <= 3*runAheadLimit; i++ {
			c.Put(i)
			issued = i
		}
	}, 0)
	defer c.Stop()
	for batch := 0; batch < 3; batch++ {
		for i := 1; i <= runAheadLimit; i++ {
			want := batch*runAheadLimit + i
			if got := c.Next(); got != want {
				t.Fatalf("Next = %d, want %d", got, want)
			}
			// The limit-th Put of a batch parked before returning, and the
			// program does not run again while operations are buffered.
			if wantIssued := (batch+1)*runAheadLimit - 1; issued != wantIssued {
				t.Fatalf("after taking op %d the program has returned from %d Puts, want %d",
					want, issued, wantIssued)
			}
		}
	}
	if got := c.Next(); got != 0 {
		t.Fatalf("final Next = %d, want the done op 0", got)
	}
}

// TestOpsInIssueOrder mixes Puts and Yields so that batches end both at the
// limit and at a Yield, and checks every operation comes out once, in order.
func TestOpsInIssueOrder(t *testing.T) {
	const n = 5*runAheadLimit + 3
	var c *Coroutine[int]
	c = Start(func() {
		for i := 1; i <= n; i++ {
			if i%(runAheadLimit/2+5) == 0 {
				c.Yield(i)
			} else {
				c.Put(i)
			}
		}
	}, -1)
	defer c.Stop()
	for want := 1; want <= n; want++ {
		if got := c.Next(); got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
	}
	if got := c.Next(); got != -1 {
		t.Fatalf("final Next = %d, want the done op -1", got)
	}
}

func TestCodeAfterYieldWaitsForEarlierOps(t *testing.T) {
	var c *Coroutine[int]
	after := false
	c = Start(func() {
		c.Put(1)
		c.Put(2)
		c.Yield(3)
		after = true
		c.Put(4)
	}, 0)
	defer c.Stop()
	for want := 1; want <= 3; want++ {
		if got := c.Next(); got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
		if after {
			t.Fatalf("code after Yield(3) ran once the engine had taken op %d", want)
		}
	}
	if got := c.Next(); got != 4 || !after {
		t.Fatalf("Next = %d, code after Yield ran = %v; want 4, true", got, after)
	}
}

func TestStopUnwindsProgramWithBufferedOps(t *testing.T) {
	before := runtime.NumGoroutine()
	var c *Coroutine[int]
	unwound, ranOn := false, false
	c = Start(func() {
		defer func() { unwound = true }()
		for i := 1; i <= runAheadLimit; i++ {
			c.Put(i)
		}
		ranOn = true
	}, 0)
	if got := c.Next(); got != 1 {
		t.Fatalf("Next = %d, want 1", got)
	}
	if n := len(c.buf) - c.head; n != runAheadLimit-1 {
		t.Fatalf("%d operations buffered, want %d", n, runAheadLimit-1)
	}
	c.Stop()
	if !unwound || ranOn {
		t.Fatalf("after Stop: deferred calls ran = %v, body continued = %v; want true, false", unwound, ranOn)
	}
	if n := len(c.buf) - c.head; n != 0 {
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
		var c *Coroutine[int]
		c = Start(func() {
			for i := 1; i <= taken+2; i++ {
				c.Put(i)
			}
			panic("program bug")
		}, 0)
		for want := 1; want <= taken; want++ {
			if got := c.Next(); got != want {
				t.Fatalf("Next = %d, want %d", got, want)
			}
		}
		r := recovered(func() { c.Next() })
		c.Stop()
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
