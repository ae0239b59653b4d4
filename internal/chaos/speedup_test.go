package chaos

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/workload"
)

// timeCampaign runs one fft campaign at the given worker count and returns
// its wall time. Schedules are independent simulations, so on a host with
// spare cores the pool should scale nearly linearly.
func timeCampaign(t *testing.T, jobs, schedules int) time.Duration {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 50_000_000_000
	cfg = cfg.WithRobustness()
	var out bytes.Buffer
	c := &Campaign{
		Cfg:       cfg,
		Size:      workload.SizeTest,
		SizeName:  "test",
		Schedules: schedules,
		Events:    2 + cfg.Nodes,
		BaseSeed:  1,
		Jobs:      jobs,
		Quiet:     true,
		Out:       &out,
	}
	start := time.Now()
	failed, err := c.RunApp("fft")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	if failed != 0 {
		t.Fatalf("jobs=%d: %d schedules failed:\n%s", jobs, failed, out.String())
	}
	return elapsed
}

// TestCampaignPoolSpeedup is the pool-utilization regression test for chaos
// campaigns: with four real cores available, fanning the independent
// schedules across -jobs 4 must beat the serial loop by a clear margin.
// Measured with -jobs 4 on a GOMAXPROCS=1 host, the same campaign reads
// ~0.99x: goroutine oversubscription, not an idle pool. On hosts without the
// cores to exercise real parallelism this test skips explicitly rather than
// passing vacuously.
func TestCampaignPoolSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark; skipped in -short mode")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("pool speedup needs >= 4 real cores, host has GOMAXPROCS=%d: "+
			"parallel wall-clock on this machine measures oversubscription, not the pool", procs)
	}
	const schedules = 20
	// Warm caches (workload memoization, allocator) so the serial timing
	// isn't charged for first-touch costs the parallel run then skips.
	timeCampaign(t, 1, 2)
	serial := timeCampaign(t, 1, schedules)
	parallel := timeCampaign(t, 4, schedules)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, jobs=4 %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("campaign speedup at jobs=4 is %.2fx (serial %v vs parallel %v), want >= 1.5x — "+
			"the runner pool is not keeping its workers busy", speedup, serial, parallel)
	}
}
