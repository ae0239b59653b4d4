package machine

import (
	"errors"
	"fmt"

	"ccnuma/internal/core"
	"ccnuma/internal/obs"
)

// ClassifyFailure turns a recovered panic value or returned error from a
// simulation run into its machine-readable ccnuma-run/v1 failure document.
// It is the single definition of which failures are pathological (the
// scenario deterministically cannot complete — the protocol's fail-stop
// fired) versus unclassified, shared by every harness that survives a
// failing run: the chaos campaign records the document in its artifact,
// and ccserved serves it as the failed cell's result (a cell runs once).
func ClassifyFailure(p interface{}) *obs.FailureDoc {
	if p == nil {
		return nil
	}
	switch v := p.(type) {
	case *core.RetryBudgetError:
		return &obs.FailureDoc{
			Class:    obs.FailureRetryBudget,
			Message:  v.Error(),
			Node:     v.Node,
			Line:     fmt.Sprintf("%#x", v.Line),
			Attempts: v.Attempts,
		}
	case error:
		// An error chain may still carry the typed fail-stop (e.g. wrapped
		// by a harness before rethrowing).
		var rbe *core.RetryBudgetError
		if errors.As(v, &rbe) {
			return ClassifyFailure(rbe)
		}
		return &obs.FailureDoc{Class: obs.FailureError, Message: v.Error()}
	default:
		return &obs.FailureDoc{Class: obs.FailurePanic, Message: fmt.Sprint(v)}
	}
}
