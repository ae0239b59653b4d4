package machine

import (
	"strings"
	"testing"

	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
)

// TestWatchdogAndLimitAcrossShards drives the one engine driver serial and
// sharded: a same-instant event loop must trip the watchdog with the stall
// text, and a spinning program must hit the time limit with the machine's
// limit text, identically in both modes.
func TestWatchdogAndLimitAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a full watchdog chunk of events")
	}
	for _, shards := range []int{1, 2} {
		cfg := testCfg(2, 1)
		cfg.SimShards = shards
		m, err := New(cfg, "watchdog-test")
		if err != nil {
			t.Fatal(err)
		}
		var loop sim.Func
		loop = func() { m.Eng.After(0, loop) }
		m.Eng.At(10, loop)
		_, err = m.Run(func(*prog.Env) {})
		if err == nil || !strings.HasPrefix(err.Error(), "machine: watchdog: simulated time stalled at t=10 (2000000 events without progress)") {
			t.Errorf("shards=%d: same-instant loop: %v", shards, err)
		}

		cfg.SimLimit = 5_000
		m, err = New(cfg, "limit-test")
		if err != nil {
			t.Fatal(err)
		}
		base := m.Space.Alloc(4096)
		_, err = m.Run(func(e *prog.Env) {
			for {
				e.Read(base)
				e.Compute(100)
			}
		})
		if err == nil || !strings.HasPrefix(err.Error(), "machine: time limit 5000 exceeded at t=") {
			t.Errorf("shards=%d: spinning program: %v", shards, err)
		}
	}
}

// TestRunRequiresDrainedNetwork checks Machine.Run's end-of-run drain
// check: a frame still on the wire when the engine stops fails the run
// even though every processor finished.
func TestRunRequiresDrainedNetwork(t *testing.T) {
	m, err := New(testCfg(2, 1), "drain-test")
	if err != nil {
		t.Fatal(err)
	}
	m.Net.Send(10, 0, 1, 1, nil)
	m.Eng.At(11, sim.Func(m.Eng.Stop)) // before the frame can land
	_, err = m.Run(func(*prog.Env) {})
	if err == nil || !strings.Contains(err.Error(), "network did not drain: 1 frames still in flight") {
		t.Fatalf("run with a frame in flight: %v", err)
	}
}
