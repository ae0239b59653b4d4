package prog

import "testing"

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
