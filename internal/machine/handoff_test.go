package machine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
)

// settledGoroutines returns the goroutine count once it has fallen to want
// (an exiting goroutine may need a scheduler pass to be reaped), or after
// giving up.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// runRecovered runs program on m and returns its error, or the recovered
// panic value flattened to an error.
func runRecovered(m *Machine, program func(prog.Env)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, err = m.Run(program)
	return err
}

// TestRunReleasesPrograms checks that no exit path of Machine.Run leaves a
// program coroutine parked: after a successful run and runs failing by time
// limit, deadlock, and a program panic, serial and sharded, the goroutine
// count is back where it started.
func TestRunReleasesPrograms(t *testing.T) {
	spin := func(base uint64) func(prog.Env) {
		return func(e prog.Env) {
			for {
				e.Read(base)
				e.Compute(100)
			}
		}
	}
	cases := []struct {
		name    string
		limit   sim.Time
		program func(base uint64) func(prog.Env)
		wantErr string
	}{
		{"success", 50_000_000, func(base uint64) func(prog.Env) {
			return func(e prog.Env) {
				e.Write(base + uint64(e.ID())*8)
				e.Barrier()
				e.Read(base)
			}
		}, ""},
		{"time limit", 5_000, spin, "time limit"},
		{"deadlock", 50_000_000, func(base uint64) func(prog.Env) {
			return func(e prog.Env) {
				e.Read(base)
				if e.ID() == 0 {
					e.Barrier() // nobody else joins
				}
			}
		}, "never finished"},
		{"program panic", 50_000_000, func(base uint64) func(prog.Env) {
			return func(e prog.Env) {
				e.Read(base)
				if e.ID() == 1 {
					panic("workload bug")
				}
				e.Barrier()
			}
		}, "workload bug"},
	}
	before := runtime.NumGoroutine()
	for _, shards := range []int{1, 2} {
		for _, tc := range cases {
			cfg := testCfg(2, 2)
			cfg.SimShards = shards
			cfg.SimLimit = tc.limit
			m, err := New(cfg, "release")
			if err != nil {
				t.Fatal(err)
			}
			base := m.Space.Alloc(4096)
			err = runRecovered(m, tc.program(base))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("shards=%d %s: %v", shards, tc.name, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("shards=%d %s: error %v, want one containing %q", shards, tc.name, err, tc.wantErr)
			}
			if n := settledGoroutines(before); n > before {
				t.Fatalf("shards=%d %s: %d goroutines after the run, %d before", shards, tc.name, n, before)
			}
		}
	}
}

// TestProgramPanicSurfacesFromRun checks that a panic in a workload body
// comes out of Machine.Run on the caller's goroutine with its value intact,
// where harnesses recover and classify it like any model panic.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	m, err := New(testCfg(2, 1), "panic")
	if err != nil {
		t.Fatal(err)
	}
	base := m.Space.Alloc(4096)
	var got interface{}
	func() {
		defer func() { got = recover() }()
		_, _ = m.Run(func(e prog.Env) {
			e.Read(base)
			if e.ID() == 1 {
				panic(fmt.Errorf("verify: bad result on proc %d", e.ID()))
			}
		})
	}()
	err, ok := got.(error)
	if !ok || err.Error() != "verify: bad result on proc 1" {
		t.Fatalf("recovered %#v, want the program's error value", got)
	}
	if doc := ClassifyFailure(got); doc == nil || doc.Message != "verify: bad result on proc 1" {
		t.Fatalf("ClassifyFailure = %+v", doc)
	}
}

// TestL1HitsDoNotAllocate pins the cost of the program handoff: on a 1x1
// machine, a program re-reading one L1-resident line allocates nothing per
// reference once the line is cached, so doubling the reference count must
// not change the allocations of the whole run.
func TestL1HitsDoNotAllocate(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			m, err := New(testCfg(1, 1), "alloc")
			if err != nil {
				t.Fatal(err)
			}
			base := m.Space.Alloc(4096)
			if _, err := m.Run(func(e prog.Env) {
				for i := 0; i < n; i++ {
					e.Read(base)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 5000
	small, large := allocs(n), allocs(2*n)
	if perRef := (large - small) / n; perRef > 0.001 {
		t.Fatalf("%.4f allocations per L1 hit (%v allocs at %d refs, %v at %d), want 0",
			perRef, small, n, large, 2*n)
	}
}
