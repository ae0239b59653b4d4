package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// suiteOutput captures every observable product of a suite regeneration:
// the rendered tables/figures, the progress stream, and the serialized run
// artifacts.
type suiteOutput struct {
	rendered  string
	progress  string
	artifacts []byte
}

// regenerate runs Table 6 and Figure 6 at SizeTest on a fresh suite with
// the given worker count and captures everything it produced.
func regenerate(t *testing.T, jobs int) suiteOutput {
	t.Helper()
	s := NewSuite(workload.SizeTest)
	s.Jobs = jobs
	s.CollectArtifacts = true
	var progress bytes.Buffer
	s.Progress = &progress

	rows6, err := s.Table6()
	if err != nil {
		t.Fatalf("jobs=%d: Table6: %v", jobs, err)
	}
	f6, err := s.Figure6()
	if err != nil {
		t.Fatalf("jobs=%d: Figure6: %v", jobs, err)
	}
	arts, err := json.MarshalIndent(s.Artifacts(), "", "  ")
	if err != nil {
		t.Fatalf("jobs=%d: marshal artifacts: %v", jobs, err)
	}
	return suiteOutput{
		rendered:  RenderTable6(rows6) + "\n" + f6.Render(),
		progress:  progress.String(),
		artifacts: arts,
	}
}

// TestParallelMatchesSerial is the golden determinism pin for the parallel
// runner: a suite regeneration at -jobs 8 must produce byte-identical
// renders, progress lines, and artifact JSON to the serial (-jobs 1) loop.
// A second serial run additionally pins run-to-run repeatability: two
// identical simulations must serialize identically (no map iteration or
// other nondeterminism feeds the artifacts).
func TestParallelMatchesSerial(t *testing.T) {
	serial := regenerate(t, 1)
	again := regenerate(t, 1)
	parallel := regenerate(t, 8)

	if serial.rendered != again.rendered || serial.progress != again.progress {
		t.Error("two identical serial regenerations rendered differently")
	}
	if !bytes.Equal(serial.artifacts, again.artifacts) {
		t.Error("two identical serial regenerations serialized different artifacts")
	}

	if serial.rendered != parallel.rendered {
		t.Errorf("jobs=8 render differs from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serial.rendered, parallel.rendered)
	}
	if serial.progress != parallel.progress {
		t.Errorf("jobs=8 progress stream differs from serial:\n--- serial ---\n%s\n--- jobs=8 ---\n%s",
			serial.progress, parallel.progress)
	}
	if !bytes.Equal(serial.artifacts, parallel.artifacts) {
		t.Error("jobs=8 artifacts are not byte-identical to serial")
	}
}

// TestTable3Repeatable pins the Table 3 probe: two invocations must agree
// exactly, including the rendered text.
func TestTable3Repeatable(t *testing.T) {
	a, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Table3 results differ across runs: %+v vs %+v", a, b)
	}
	if a.Render() != b.Render() {
		t.Error("Table3 renders differ across runs")
	}
}

// TestFailureIndependentOfJobs makes the third cell of a plan fail (its
// watchdog horizon ends long before the run does) and requires, serially
// and on two workers, the same error naming the request, the same
// progress lines for the cells before it, no memo entry for anything
// after it, and no result handed to the plan.
func TestFailureIndependentOfJobs(t *testing.T) {
	failing := func(jobs int) (string, string) {
		s := NewSuite(workload.SizeTest)
		s.Jobs = jobs
		var progress bytes.Buffer
		s.Progress = &progress
		short := variant{name: "short", edit: func(cfg *config.Config) { cfg.SimLimit = 1000 }}
		var p plan
		for _, q := range []runReq{
			s.req("fft", "HWC", base()),
			s.req("radix", "PPC", base()),
			s.req("ocean", "2HWC", short),
			s.req("water-sp", "HWC", base()),
		} {
			p.add(q, func(*stats.Run) { t.Errorf("jobs=%d: a failed plan handed out a run", jobs) })
		}
		err := s.runs(p)
		if err == nil {
			t.Fatalf("jobs=%d: a run past its time limit succeeded", jobs)
		}
		if len(s.cache) != 2 {
			t.Errorf("jobs=%d: %d runs memoized, want the 2 before the failure", jobs, len(s.cache))
		}
		return err.Error(), progress.String()
	}
	err1, progress1 := failing(1)
	err2, progress2 := failing(2)
	if !strings.HasPrefix(err1, "ocean/2HWC (short): machine: time limit 1000 exceeded") {
		t.Errorf("error %q does not name the failing request and its cause", err1)
	}
	if err2 != err1 {
		t.Errorf("jobs=2 error differs from serial:\n%s\n--- serial ---\n%s", err2, err1)
	}
	if n := strings.Count(progress1, "  ran "); n != 2 || progress2 != progress1 {
		t.Errorf("progress before the failure: serial (%d lines)\n%s--- jobs=2 ---\n%s", n, progress1, progress2)
	}
}
