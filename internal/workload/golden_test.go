package workload

import (
	"fmt"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
)

// goldenPins are exact cycle counts of kernels at test size on the base
// (robustness-off) configuration. At 4x2 fft cannot tell one engine from
// two (HWC and 2HWC both run 14804 cycles, PPC and 2PPC 21476), so ocean
// pins all six architectures.
var goldenPins = []struct {
	app   string
	arch  string
	nodes int
	ppn   int
	want  int64
}{
	{"fft", "HWC", 4, 2, 14804},
	{"fft", "2PPC", 4, 2, 21476},
	{"water-sp", "PPC", 2, 2, 101764},
	{"ocean", "HWC", 4, 2, 33941},
	{"ocean", "2HWC", 4, 2, 33237},
	{"ocean", "PPC", 4, 2, 47083},
	{"ocean", "2PPC", 4, 2, 44085},
	{"ocean", "PPCA", 4, 2, 38168},
	{"ocean", "2PPCA", 4, 2, 37070},
}

// TestGoldenExecTimes runs every golden pin. The robustness machinery —
// finite queues, NACK/retry, timeouts, the reliable link layer — must be
// architecturally invisible when it is off: any drift here means a
// recovery code path leaked into the fault-free simulation.
func TestGoldenExecTimes(t *testing.T) {
	for _, tc := range goldenPins {
		cfg, err := config.Base().WithArch(tc.arch)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Nodes = tc.nodes
		cfg.ProcsPerNode = tc.ppn
		cfg.SimLimit = 2_000_000_000
		m, err := machine.New(cfg, tc.app)
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(tc.app, SizeTest, m.NProcs())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Body)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.app, tc.arch, err)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("%s/%s verification: %v", tc.app, tc.arch, err)
		}
		if int64(r.ExecTime) != tc.want {
			t.Errorf("%s on %s (%dx%d): ExecTime = %d cycles, want %d — the base configuration is no longer cycle-identical",
				tc.app, tc.arch, tc.nodes, tc.ppn, r.ExecTime, tc.want)
		}
	}
}

// TestGoldenPinsSeeEveryArch requires the pin table to tell the
// architectures apart, as TestEveryKnobChangesTheRun does for knobs. On
// each pinned machine, a kind's one-engine and two-engine pins differ and,
// at each engine count, the three kinds' pins differ; and at least one
// machine pins all six of HWC, 2HWC, PPC, 2PPC, PPCA and 2PPCA. A model
// that ignored the second engine, or charged one kind's costs to another,
// would then fail a pin.
func TestGoldenPinsSeeEveryArch(t *testing.T) {
	kinds := []string{"HWC", "PPC", "PPCA"}
	byMachine := map[string]map[string]int64{}
	for _, p := range goldenPins {
		m := fmt.Sprintf("%s %dx%d", p.app, p.nodes, p.ppn)
		if byMachine[m] == nil {
			byMachine[m] = map[string]int64{}
		}
		byMachine[m][p.arch] = p.want
	}
	differ := func(m, a, b string) {
		pins := byMachine[m]
		va, okA := pins[a]
		vb, okB := pins[b]
		if okA && okB && va == vb {
			t.Errorf("%s: %s and %s both pin %d cycles; the pins cannot tell them apart", m, a, b, va)
		}
	}
	complete := 0
	for m, pins := range byMachine {
		all := true
		for i, k := range kinds {
			differ(m, k, "2"+k)
			for _, other := range kinds[i+1:] {
				differ(m, k, other)
				differ(m, "2"+k, "2"+other)
			}
			_, one := pins[k]
			_, two := pins["2"+k]
			all = all && one && two
		}
		if all {
			complete++
		}
	}
	if complete == 0 {
		t.Error("no pinned machine covers all six architectures")
	}
}
