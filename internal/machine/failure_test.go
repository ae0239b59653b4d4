package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
)

func TestClassifyFailureRetryBudget(t *testing.T) {
	rbe := &core.RetryBudgetError{Node: 3, Line: 0x1f80, Attempts: 26, LastEvent: "NACKed", At: 12345}
	doc := ClassifyFailure(rbe)
	if doc.Class != obs.FailureRetryBudget {
		t.Fatalf("class = %q, want %q", doc.Class, obs.FailureRetryBudget)
	}
	if doc.Node != 3 || doc.Line != "0x1f80" || doc.Attempts != 26 {
		t.Fatalf("location not carried over: %+v", doc)
	}
	if !strings.Contains(doc.Message, "exhausted its retry budget") {
		t.Fatalf("message lost the diagnostic: %q", doc.Message)
	}
}

func TestClassifyFailureWrappedError(t *testing.T) {
	rbe := &core.RetryBudgetError{Node: 1, Line: 0x40, Attempts: 9, LastEvent: "timed out", At: 7}
	wrapped := fmt.Errorf("schedule 4: %w", rbe)
	doc := ClassifyFailure(wrapped)
	if doc.Class != obs.FailureRetryBudget {
		t.Fatalf("wrapped retry-budget error classified as %q", doc.Class)
	}
}

func TestClassifyFailureUnclassified(t *testing.T) {
	if doc := ClassifyFailure("kaboom"); doc.Class != obs.FailurePanic {
		t.Fatalf("raw panic value: got %+v", doc)
	}
	if doc := ClassifyFailure(errors.New("disk on fire")); doc.Class != obs.FailureError {
		t.Fatalf("plain error: got %+v", doc)
	}
	if doc := ClassifyFailure(nil); doc != nil {
		t.Fatalf("nil in, got %+v", doc)
	}
}
