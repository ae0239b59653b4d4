package prog_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/pram"
	"ccnuma/internal/prog"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// runAheadLimits are the limits TestResultsIndependentOfRunAhead compares:
// a switch per operation, odd batch boundaries, the default, and a limit
// no test-size program reaches between synchronization operations.
var runAheadLimits = []int{1, 2, 7, prog.RunAheadLimit, 4096}

// TestResultsIndependentOfRunAhead runs every paper application and micro
// at test size on the 4x2 HWC and 2PPC machines, and through the PRAM
// estimator, at each run-ahead limit. Programs share Go memory only across
// Barrier, Lock and Unlock, so how far a program runs ahead of the engine
// must not change any simulated result: every limit must give the same
// execution time and counters (digested like the benchmark's pins) and the
// same PRAM estimate. A workload that reads another program's data between
// synchronization operations fails here.
func TestResultsIndependentOfRunAhead(t *testing.T) {
	apps := append([]string{"micro"}, workload.PaperApps...)
	for _, app := range apps {
		for _, arch := range []string{"HWC", "2PPC"} {
			var want string
			for _, limit := range runAheadLimits {
				got := withRunAhead(limit, func() string { return detailedDigest(t, app, arch) })
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s/%s: run-ahead %d gives %s, run-ahead %d gave %s",
						app, arch, limit, got, runAheadLimits[0], want)
				}
			}
		}
		var want string
		for _, limit := range runAheadLimits {
			got := withRunAhead(limit, func() string { return pramEstimate(t, app) })
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s/PRAM: run-ahead %d gives %s, run-ahead %d gave %s",
					app, limit, got, runAheadLimits[0], want)
			}
		}
	}
}

func withRunAhead(limit int, f func() string) string {
	defer prog.SetRunAhead(limit)()
	return f()
}

// testMachine builds the 4x2 machine of the given architecture with app
// set up on it.
func testMachine(t *testing.T, app, arch string) (*machine.Machine, workload.Workload) {
	t.Helper()
	cfg, err := config.Base().WithArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 2_000_000_000
	m, err := machine.New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(app, workload.SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	return m, w
}

// detailedDigest runs app on the detailed machine and returns a SHA-256
// over its execution time and its counters in name order.
func detailedDigest(t *testing.T, app, arch string) string {
	t.Helper()
	m, w := testMachine(t, app, arch)
	r, err := workload.Run(m, w)
	if err != nil {
		t.Fatalf("%s/%s: %v", app, arch, err)
	}
	return digest(r)
}

func digest(r *stats.Run) string {
	h := sha256.New()
	fmt.Fprintf(h, "exec=%d\n", r.ExecTime)
	for _, name := range r.CounterNames() {
		fmt.Fprintf(h, "%s=%d\n", name, r.Counter(name))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pramEstimate runs app through the PRAM estimator and returns its counts.
func pramEstimate(t *testing.T, app string) string {
	t.Helper()
	m, w := testMachine(t, app, "HWC")
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	est := pram.New(&m.Cfg, m.Space)
	if err := est.Run(w.Body); err != nil {
		t.Fatalf("%s/PRAM: %v", app, err)
	}
	return fmt.Sprintf("%d requests / %d instructions", est.CCRequests(), est.Instructions())
}
