package verify

import (
	"context"
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/machine"
	"ccnuma/internal/protocol"
	pool "ccnuma/internal/runner"
)

// SweepResult summarizes a single-fault sweep: a canonical operation path
// replayed once per (message index, fault kind) pair with exactly one fault
// injected, asserting full recovery every time.
type SweepResult struct {
	// Messages is the network message count of the fault-free reference run
	// (the sweep's injection coordinate space).
	Messages int `json:"messages"`
	// Runs is how many fault-injected replays executed.
	Runs int `json:"runs"`
	// Truncated means the (message, kind) grid exceeded the run budget and
	// was stride-sampled instead of covered exhaustively.
	Truncated  bool        `json:"truncated"`
	Violations []Violation `json:"violations"`
}

// OK reports whether every injected fault was recovered from.
func (r *SweepResult) OK() bool { return len(r.Violations) == 0 }

// sweepKinds are the single-fault mutations the sweep injects: losing a
// message on the link, duplicating it, bouncing it off a "full" NI
// request queue (nackable requests only — the forced-NACK seam is inert
// for other types), and delaying it past the requester's re-issue
// timeout so the retry races its own original.
var sweepKinds = [...]string{"drop", "dup", "nack", "timeout"}

// SweepSingleFaults replays one canonical path — every (processor, op) pair
// in order, the state-space walk's step vocabulary — on the robust machine
// configuration, once per (message index, fault kind) combination, with
// exactly one fault injected at that message boundary. Each replay must
// drain to a quiescent, invariant-clean state: the link layer and the
// NACK/retry/timeout machinery must absorb any single fault. maxRuns bounds
// the grid (0 = default 600); larger grids are stride-sampled. kinds
// restricts the sweep to a subset of the fault classes (default: all).
// Violations carry the replay path plus the injected fault for
// reproduction.
func SweepSingleFaults(vc Config, maxRuns int, kinds ...string) (*SweepResult, error) {
	c := vc.normalized()
	c.Robust = true
	if maxRuns <= 0 {
		maxRuns = 600
	}
	if len(kinds) == 0 {
		kinds = sweepKinds[:]
	}
	for _, k := range kinds {
		known := false
		for _, s := range sweepKinds {
			known = known || k == s
		}
		if !known {
			return nil, fmt.Errorf("verify: unknown sweep fault kind %q", k)
		}
	}
	// The canonical path: every (processor, op) pair, then a second round of
	// target writes and reads ping-ponging dirty ownership between
	// processors — the second round starts from shared/dirty states, so its
	// traffic covers interventions and write-backs, not just cold misses.
	path := c.allSteps()
	nprocs := c.Nodes * c.ProcsPerNode
	for p := 0; p < nprocs; p++ {
		path = append(path, Step{Proc: p, Op: OpWriteT})
		path = append(path, Step{Proc: (p + 1) % nprocs, Op: OpReadT})
	}

	// Reference run: count the path's network messages with a pass-through
	// hook; these indices are the sweep's injection points.
	var msgs uint64
	c.Fault = func(m *machine.Machine) {
		m.Net.Fault = func(src, dst int, payload interface{}) interconnect.Decision {
			msgs++
			return interconnect.Decision{}
		}
	}
	if _, vio := protect(func() (string, *Violation) { return runPath(&c, path) }); vio != nil {
		vio.PathStr = PathString(vio.Path)
		return nil, fmt.Errorf("verify: fault-free robust reference run failed: %s", vio.String())
	}

	res := &SweepResult{Messages: int(msgs), Violations: []Violation{}}
	total := int(msgs) * len(kinds)
	stride := 1
	if total > maxRuns {
		stride = (total + maxRuns - 1) / maxRuns
		res.Truncated = true
	}
	var idxs []int
	for i := 0; i < total; i += stride {
		idxs = append(idxs, i)
	}
	// Replays are independent, so the grid fans out across c.Jobs workers.
	// Each job gets its own Config copy carrying its own Fault closure (the
	// injected-fault coordinates are per-replay state); results fold in grid
	// order, so Runs counting, violation order, and log lines match the
	// serial sweep exactly.
	vios, _ := pool.Map(context.Background(), c.Jobs, len(idxs),
		func(j int) (*Violation, error) {
			target, kind := uint64(idxs[j]/len(kinds)), kinds[idxs[j]%len(kinds)]
			cj := c
			cj.Fault = func(m *machine.Machine) {
				var idx uint64
				m.Net.Fault = func(src, dst int, payload interface{}) interconnect.Decision {
					var d interconnect.Decision
					if idx == target {
						switch kind {
						case "drop":
							d.Drop = true
						case "nack":
							// Deliver normally, but arm the destination's
							// one-shot forced bounce so a nackable request is
							// rejected as if the NI queue were full.
							if pm, ok := payload.(*protocol.Msg); ok && pm.Nackable() {
								m.CCs[dst].ForceNackNext(1)
							}
						case "timeout":
							// Park the message past the requester's re-issue
							// timeout so the retry races the delayed original.
							d.Delay = config.RobustRequestTimeout + config.RobustRequestTimeout/2
						default:
							d.Duplicate = true
						}
					}
					idx++
					return d
				}
			}
			_, vio := protect(func() (string, *Violation) { return runPath(&cj, path) })
			return vio, nil
		})
	for j, vio := range vios {
		target, kind := uint64(idxs[j]/len(kinds)), kinds[idxs[j]%len(kinds)]
		res.Runs++
		if vio != nil {
			vio.Detail = fmt.Sprintf("%s [injected %s@msg%d]", vio.Detail, kind, target)
			vio.PathStr = PathString(vio.Path)
			res.Violations = append(res.Violations, *vio)
			if len(res.Violations) >= c.MaxViolations {
				break
			}
		}
		c.logf("sweep: %d/%d runs, %d violations", res.Runs, (total+stride-1)/stride, len(res.Violations))
	}
	return res, nil
}
