package workload

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/stats"
)

// runWorkload executes one benchmark at test size on a small machine and
// verifies its computation.
func runWorkload(t *testing.T, name string, nodes, procsPerNode int) *stats.Run {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = procsPerNode
	cfg.SimLimit = 2_000_000_000
	m, err := machine.New(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(name, SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(w.Body)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s verification: %v", name, err)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"barnes", "cholesky", "fft", "lu", "micro", "ocean", "radix", "water-nsq", "water-sp"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry has %v, want %v", names, want)
		}
	}
	if _, err := New("nope", SizeBase, 4); err == nil {
		t.Fatal("unknown workload should error")
	}
	if len(PaperApps) != 8 {
		t.Fatalf("paper app list has %d entries", len(PaperApps))
	}
	for _, app := range PaperApps {
		if _, err := New(app, SizeTest, 4); err != nil {
			t.Errorf("paper app %s unregistered: %v", app, err)
		}
	}
}

// TestSeedZeroIsUnseeded checks that NewSeeded with seed 0 builds every
// kernel exactly as New does: the same execution time, instructions and
// controller arrivals on the same machine.
func TestSeedZeroIsUnseeded(t *testing.T) {
	for _, name := range Names() {
		var got [2][3]uint64
		for i := range got {
			cfg := config.Base()
			cfg.Nodes, cfg.ProcsPerNode = 2, 1
			cfg.SimLimit = 2_000_000_000
			m, err := machine.New(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			var w Workload
			if i == 0 {
				w, err = New(name, SizeTest, m.NProcs())
			} else {
				w, err = NewSeeded(name, SizeTest, m.NProcs(), 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(m, w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[i] = [3]uint64{uint64(r.ExecTime), r.Instructions, r.TotalArrivals()}
		}
		if got[0] != got[1] {
			t.Errorf("%s: seed 0 gives (exec, instructions, arrivals) %v, unseeded %v", name, got[1], got[0])
		}
	}
}

func TestLU(t *testing.T)       { runWorkload(t, "lu", 2, 2) }
func TestFFT(t *testing.T)      { runWorkload(t, "fft", 2, 2) }
func TestRadix(t *testing.T)    { runWorkload(t, "radix", 2, 2) }
func TestOcean(t *testing.T)    { runWorkload(t, "ocean", 2, 2) }
func TestBarnes(t *testing.T)   { runWorkload(t, "barnes", 2, 2) }
func TestWaterNsq(t *testing.T) { runWorkload(t, "water-nsq", 2, 2) }
func TestWaterSp(t *testing.T)  { runWorkload(t, "water-sp", 2, 2) }
func TestCholesky(t *testing.T) { runWorkload(t, "cholesky", 2, 2) }
func TestMicro(t *testing.T)    { runWorkload(t, "micro", 2, 2) }

func TestWorkloadsOnFourNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"ocean", "radix", "fft"} {
		name := name
		t.Run(name, func(t *testing.T) { runWorkload(t, name, 4, 2) })
	}
}

// The paper's key application property: communication rates (RCCPI) order
// Ocean/Radix above Barnes/Water-Spatial/LU.
func TestRCCPIOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rccpi := map[string]float64{}
	for _, name := range []string{"ocean", "radix", "lu", "water-sp"} {
		r := runWorkload(t, name, 4, 2)
		rccpi[name] = r.RCCPI()
		t.Logf("%-10s 1000*RCCPI = %.3f", name, 1000*r.RCCPI())
	}
	if rccpi["ocean"] <= rccpi["lu"] {
		t.Errorf("ocean RCCPI (%.4f) should exceed lu (%.4f)", rccpi["ocean"], rccpi["lu"])
	}
	if rccpi["radix"] <= rccpi["water-sp"] {
		t.Errorf("radix RCCPI (%.4f) should exceed water-sp (%.4f)", rccpi["radix"], rccpi["water-sp"])
	}
}

func TestMicroShareKnob(t *testing.T) {
	run := func(share int) float64 {
		cfg := config.Base()
		cfg.Nodes = 4
		cfg.ProcsPerNode = 2
		cfg.SimLimit = 1_000_000_000
		m, err := machine.New(cfg, "micro")
		if err != nil {
			t.Fatal(err)
		}
		w := NewMicro(100, share, 30, m.NProcs())
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.RCCPI()
	}
	low, high := run(5), run(80)
	if high <= low {
		t.Fatalf("RCCPI should rise with the share knob: low=%.5f high=%.5f", low, high)
	}
}

func TestBlockRange(t *testing.T) {
	covered := make([]bool, 13)
	for p := 0; p < 4; p++ {
		lo, hi := blockRange(13, 4, p)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestFFT1D(t *testing.T) {
	a := []complex128{1, 2, 3, 4}
	fft1d(a)
	// DFT of [1,2,3,4]: [10, -2+2i, -2, -2-2i].
	want := []complex128{10, complex(-2, 2), -2, complex(-2, -2)}
	for i := range a {
		if d := a[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("fft1d[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

// TestWorkloadDeterminism: the same workload on the same configuration
// must produce bit-identical statistics run to run — the property that
// makes every experiment in this repository reproducible.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"ocean", "radix", "cholesky"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() (int64, uint64, uint64) {
				r := runWorkload(t, name, 2, 2)
				return int64(r.ExecTime), r.Instructions, r.TotalArrivals()
			}
			e1, i1, a1 := run()
			e2, i2, a2 := run()
			if e1 != e2 || i1 != i2 || a1 != a2 {
				t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, i1, a1, e2, i2, a2)
			}
		})
	}
}

// TestInstructionCountArchInvariant: the paper ignores the architecture's
// effect on RCCPI ("the difference in RCCPI between the four
// implementations is less than 1% for all applications"); instruction
// counts are exactly invariant here because the programs are identical.
func TestInstructionCountArchInvariant(t *testing.T) {
	counts := map[string]uint64{}
	for _, arch := range []string{"HWC", "PPC", "2HWC", "2PPC"} {
		cfg := config.Base()
		var err error
		cfg, err = cfg.WithArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Nodes, cfg.ProcsPerNode = 2, 2
		cfg.SimLimit = 2_000_000_000
		m, err := machine.New(cfg, "fft")
		if err != nil {
			t.Fatal(err)
		}
		w, err := New("fft", SizeTest, m.NProcs())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(m); err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Body)
		if err != nil {
			t.Fatal(err)
		}
		counts[arch] = r.Instructions
	}
	for arch, c := range counts {
		if c != counts["HWC"] {
			t.Errorf("%s executed %d instructions, HWC %d", arch, c, counts["HWC"])
		}
	}
}
