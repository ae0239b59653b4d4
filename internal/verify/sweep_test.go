package verify

import "testing"

// TestSingleFaultSweepRecovers is the robustness acceptance check, run
// per fault class: on the 2x1 Robust machine, one
// injected fault at every message boundary of the canonical path must
// always drain to a quiescent, invariant-clean state. Drop and dup
// exercise the link layer's retransmission and dedup; nack exercises the
// NI's bounce/backoff/retry path; timeout parks a message past the
// requester's re-issue window so the retry races its own original. On
// failure the violations carry the replay path plus the injected
// (kind, message index) coordinates.
func TestSingleFaultSweepRecovers(t *testing.T) {
	for _, kind := range sweepKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			res, err := SweepSingleFaults(Config{Nodes: 2, ProcsPerNode: 1}, kind)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages == 0 {
				t.Fatal("reference run sent no messages; the sweep tested nothing")
			}
			if res.Truncated {
				t.Errorf("sweep truncated at %d runs (%d messages); the default budget should cover the 2x1 grid",
					res.Runs, res.Messages)
			} else if res.Runs != res.Messages {
				t.Errorf("ran %d replays, want %d (one per message)", res.Runs, res.Messages)
			}
			for _, v := range res.Violations {
				if v.PathStr == "" {
					t.Errorf("violation missing its repro path: %s", v.Detail)
				}
				t.Errorf("fault not recovered: %s", v.String())
			}
			t.Logf("%s: %d messages, %d fault-injected replays, all recovered", kind, res.Messages, res.Runs)
		})
	}
}

// TestSweepFullGrid covers the combined grid (all kinds interleaved, the
// shape ccmodel -sweep-faults runs) under the default budget, checking the
// budget accounting in both the exhaustive and the stride-sampled regime.
func TestSweepFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the whole fault grid; skipped in -short")
	}
	res, err := SweepSingleFaults(Config{Nodes: 2, ProcsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		if res.Runs > 600 {
			t.Errorf("truncated sweep still ran %d replays, budget is 600", res.Runs)
		}
	} else if want := res.Messages * len(sweepKinds); res.Runs != want {
		t.Errorf("ran %d replays, want %d (one per message x kind)", res.Runs, want)
	}
	for _, v := range res.Violations {
		t.Errorf("fault not recovered: %s", v.String())
	}
}

// TestSweepRejectsUnknownKind pins the kind-vocabulary guard.
func TestSweepRejectsUnknownKind(t *testing.T) {
	if _, err := SweepSingleFaults(Config{Nodes: 2, ProcsPerNode: 1}, "corrupt-everything"); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
}
