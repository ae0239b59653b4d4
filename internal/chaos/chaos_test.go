package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/workload"
)

// runCampaign executes a 10-schedule fft campaign on the ccchaos default
// machine (4x2, Robust) and returns the full progress/summary
// stream and the serialized run artifact. Runs sharing a dir must be
// sequential: the artifact file is overwritten and re-read per run. The
// dir is shared so the echoed artifact path is identical across runs.
func runCampaign(t *testing.T, dir string, jobs int) (string, []byte) {
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
		Schedules: 10,
		Events:    2 + cfg.Nodes,
		BaseSeed:  1,
		Jobs:      jobs,
		JSONDir:   dir,
		Out:       &out,
	}
	failed, err := c.RunApp("fft")
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	if failed != 0 {
		t.Fatalf("jobs=%d: %d schedules failed to recover:\n%s", jobs, failed, out.String())
	}
	art, err := os.ReadFile(filepath.Join(dir, "ccchaos-fft.json"))
	if err != nil {
		t.Fatalf("jobs=%d: %v", jobs, err)
	}
	return out.String(), art
}

// TestCampaignParallelMatchesSerial is the chaos-side determinism pin: a
// 10-schedule campaign at Jobs=8 must produce a byte-identical progress
// stream (pilot line, per-schedule lines in schedule order, summary) and a
// byte-identical run artifact to the serial campaign.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	serialOut, serialArt := runCampaign(t, dir, 1)
	parallelOut, parallelArt := runCampaign(t, dir, 8)
	if serialOut != parallelOut {
		t.Errorf("jobs=8 output differs from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serialOut, parallelOut)
	}
	if !bytes.Equal(serialArt, parallelArt) {
		t.Errorf("jobs=8 artifact not byte-identical to serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serialArt, parallelArt)
	}
}

// TestCampaignRepeatable pins run-to-run repeatability of a campaign: the
// same (app, seed) pair must reproduce the identical artifact.
func TestCampaignRepeatable(t *testing.T) {
	dir := t.TempDir()
	out1, art1 := runCampaign(t, dir, 2)
	out2, art2 := runCampaign(t, dir, 2)
	if out1 != out2 {
		t.Error("two identical campaigns produced different output")
	}
	if !bytes.Equal(art1, art2) {
		t.Error("two identical campaigns serialized different artifacts")
	}
}
