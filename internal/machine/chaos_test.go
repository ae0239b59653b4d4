package machine

import (
	"strings"
	"testing"

	"ccnuma/internal/fault"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
)

// TestStallClassification pins the classifier's decision tree on
// representative counter windows.
func TestStallClassification(t *testing.T) {
	cases := []struct {
		name string
		rep  StallReport
		want StallClass
	}{
		{"deadlock: nothing ran at all",
			StallReport{}, ClassDeadlock},
		{"nack storm: NACKs rival dispatches",
			StallReport{EventsInWindow: watchdogChunk, DispatchesInWindow: 1000,
				NacksInWindow: 900, RetriesInWindow: 800}, ClassNackStorm},
		{"livelock: events spin at one instant without NACK dominance",
			StallReport{EventsInWindow: watchdogChunk, DispatchesInWindow: 500,
				TimeAdvanced: 0}, ClassLivelock},
		{"starvation: time and work advance but procs are stuck",
			StallReport{EventsInWindow: watchdogChunk, DispatchesInWindow: 5000,
				NacksInWindow: 10, TimeAdvanced: 100, UnfinishedProcs: 2, TotalProcs: 4},
			ClassStarvation},
	}
	for _, tc := range cases {
		if got := tc.rep.Classify(); got != tc.want {
			t.Errorf("%s: Classify() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStallReportString pins that the report renders its class and the
// progress counters the diagnosis rests on.
func TestStallReportString(t *testing.T) {
	rep := StallReport{
		At: 1234, EventsInWindow: 7, TotalProcs: 4, UnfinishedProcs: 1,
		DispatchesInWindow: 42, NacksInWindow: 41, RetriesInWindow: 3,
	}
	s := rep.String()
	for _, want := range []string{"class=nack-storm", "t=1234", "dispatches=42", "nacks=41", "procs=3/4"} {
		if !strings.Contains(s, want) {
			t.Errorf("StallReport.String() = %q, missing %q", s, want)
		}
	}
}

// TestWatchdogSnapshotOnLivelock drives the real watchdog: an event that
// perpetually reschedules itself at the same simulated instant must trip
// the chunk watchdog, and the error must carry the classified stall report
// and the machine snapshot.
func TestWatchdogSnapshotOnLivelock(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a full watchdog chunk of events")
	}
	m, err := New(testCfg(2, 1), "watchdog-test")
	if err != nil {
		t.Fatal(err)
	}
	spin := 0
	var loop sim.Func
	loop = func() {
		spin++
		m.Eng.After(0, loop)
	}
	m.Eng.After(10, loop)
	err = m.runEngine()
	if err == nil {
		t.Fatal("runEngine returned nil for a same-cycle event loop")
	}
	msg := err.Error()
	for _, want := range []string{"watchdog", "simulated time stalled", "class=", "pendingEvents="} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog error missing %q:\n%s", want, msg)
		}
	}
	if !strings.Contains(msg, "t=10") {
		t.Errorf("watchdog error does not pin the stalled instant:\n%s", msg)
	}
}

// TestInjectFaultsAppliesSchedule runs a small kernel under a seeded
// schedule on the robust configuration and checks that the injector
// accounts for applied faults and the run still completes correctly.
func TestInjectFaultsAppliesSchedule(t *testing.T) {
	cfg := testCfg(2, 2).WithRobustness()
	m, err := New(cfg, "chaos-test")
	if err != nil {
		t.Fatal(err)
	}
	sch := fault.Generate(7, fault.Params{
		Events:   12,
		Horizon:  50_000,
		Messages: 400,
		Nodes:    cfg.Nodes,
		Engines:  cfg.EngineCount(),
	})
	inj := m.InjectFaults(sch)
	base := m.Space.AllocOnNode(64*cfg.LineSize, 0)
	r, err := m.Run(func(e *prog.Env) {
		// Every processor walks the shared region homed on node 0, so
		// remote misses, interventions, and write-backs all flow while
		// faults land on them.
		for i := 0; i < 64; i++ {
			a := base + uint64(i*cfg.LineSize)
			e.Read(a)
			e.Write(a)
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v\nschedule: %s", err, sch)
	}
	if r.ExecTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if inj.MsgCount() == 0 {
		t.Error("fault hook saw no messages; injector not wired")
	}
	t.Logf("schedule %s: %d msgs seen, %d faults applied, exec=%d cycles",
		sch, inj.MsgCount(), inj.AppliedTotal(), r.ExecTime)
}

// TestScheduleDeterminism pins seed reproducibility: identical seeds yield
// identical schedules, different seeds differ.
func TestScheduleDeterminism(t *testing.T) {
	p := fault.Params{Events: 16, Horizon: 100_000, Messages: 1000, Nodes: 4, Engines: 2}
	a, b := fault.Generate(42, p), fault.Generate(42, p)
	if a.String() != b.String() {
		t.Errorf("same seed, different schedules:\n%s\n%s", a, b)
	}
	if c := fault.Generate(43, p); c.String() == a.String() {
		t.Errorf("different seeds produced identical schedules: %s", a)
	}
}
