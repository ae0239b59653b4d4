package serve

import (
	"errors"
	"fmt"
	"sort"

	"ccnuma/internal/obs"
	"ccnuma/internal/runner"
	"ccnuma/internal/scenario"
	"ccnuma/internal/sim"
)

// Cell statuses in a ccnuma-serve/v1 response.
const (
	// StatusHit: the artifact was already in the store.
	StatusHit = "hit"
	// StatusComputed: this request (or a concurrent one it joined) ran the
	// simulation and published the artifact.
	StatusComputed = "computed"
	// StatusError: the cell failed; Failure carries the classified cause.
	StatusError = "error"
)

// ResponseSchema identifies the submit response document.
const ResponseSchema = "ccnuma-serve/v1"

// CellResult is one cell's outcome in a submit response.
type CellResult struct {
	Fp     string `json:"fingerprint"`
	Arch   string `json:"arch,omitempty"`
	Value  int    `json:"value,omitempty"`
	Status string `json:"status"`
	// ExecCycles is probed from the artifact for hit/computed cells so a
	// sweep client gets its headline numbers without refetching every
	// artifact.
	ExecCycles int64           `json:"execCycles,omitempty"`
	Failure    *obs.FailureDoc `json:"failure,omitempty"`
}

// SubmitResponse is the ccnuma-serve/v1 document.
type SubmitResponse struct {
	Schema      string       `json:"schema"`
	Fingerprint string       `json:"fingerprint"` // the submission's own fingerprint
	Cells       []CellResult `json:"cells"`
}

// errRejected signals admission-control rejection (429 upstream).
var errRejected = errors.New("serve: admission queue full")

// errDraining signals the server is shutting down (503 upstream).
var errDraining = errors.New("serve: draining")

// Submit executes a parsed scenario and reports per-cell outcomes. Sweep
// submissions are journaled in the store before any cell runs, so a crash
// mid-sweep is resumed on restart; single runs need no sweep record (the
// store's per-object journal already covers them). Submit blocks until
// every cell is hit, computed, or failed.
func (s *Server) Submit(spec *scenario.Spec) (*SubmitResponse, error) {
	cells, err := ExpandCells(spec)
	if err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}

	if err := s.admit(cells); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.counters.Submissions++
	s.mu.Unlock()

	sweep := spec.Sweep != nil
	if sweep {
		canon, err := spec.Canonical()
		if err != nil {
			s.release(cells)
			return nil, err
		}
		if err := s.store.BeginSweep(fp, canon); err != nil {
			s.release(cells)
			return nil, err
		}
	}

	results, err := s.runCells(fp, cells, false)
	if err != nil {
		// Interrupted by shutdown: leave the sweep journaled as pending so
		// the next process resumes it.
		return nil, err
	}
	if sweep {
		clean := true
		for _, r := range results {
			if r.Status == StatusError {
				clean = false
				break
			}
		}
		// A sweep with failed cells stays pending: a store write that
		// failed may succeed after a restart (a failed simulation runs
		// again and fails the same way).
		if clean {
			if err := s.store.EndSweep(fp); err != nil {
				return nil, err
			}
		}
	}
	return &SubmitResponse{Schema: ResponseSchema, Fingerprint: fp, Cells: results}, nil
}

// admit charges the submission's not-yet-stored cells against the
// admission queue, rejecting the whole submission if it would overflow.
// Already-stored cells are free: serving a hit is O(read).
func (s *Server) admit(cells []*Cell) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	charge := 0
	for _, c := range cells {
		if !s.store.Has(c.Fp) {
			charge++
		}
	}
	if s.queued+charge > s.cfg.QueueDepth {
		s.counters.Rejected++
		return fmt.Errorf("%w: %d queued + %d new > depth %d",
			errRejected, s.queued, charge, s.cfg.QueueDepth)
	}
	s.queued += charge
	for _, c := range cells {
		if !s.store.Has(c.Fp) {
			c.charged = true
		}
	}
	return nil
}

// release undoes an admission charge for cells that will not run after
// all (submission failed between admit and runCells).
func (s *Server) release(cells []*Cell) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cells {
		if c.charged {
			c.charged = false
			s.queued--
		}
	}
}

// retryAfter estimates seconds until queue capacity frees up: one batch
// of Jobs cells is the unit of progress.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	batches := (s.queued + s.cfg.Jobs - 1) / s.cfg.Jobs
	if batches < 1 {
		batches = 1
	}
	return batches
}

// runCells executes every cell of one submission on the worker pool,
// serving store hits and deduplicating concurrent identical cells via
// singleflight. resume marks journal-replayed sweeps, which bypass
// admission (their charge was paid before the crash; rejecting a resume
// would strand the journal record forever).
func (s *Server) runCells(submitFp string, cells []*Cell, resume bool) ([]CellResult, error) {
	results, completed, err := runner.MapPartial(s.baseCtx, s.cfg.Jobs, len(cells),
		func(i int) (CellResult, error) {
			return s.runCell(cells[i]), nil
		}, nil)
	if err != nil {
		done := 0
		for _, c := range completed {
			if c {
				done++
			}
		}
		s.release(cells)
		kind := "submission"
		if resume {
			kind = "resumed sweep"
		}
		s.logf("%s %s interrupted: %d/%d cells done (journal will resume the rest)",
			kind, submitFp, done, len(cells))
		return nil, err
	}
	return results, nil
}

// runCell produces one cell's outcome: store hit, join of an identical
// in-flight computation, or a fresh computation.
func (s *Server) runCell(c *Cell) CellResult {
	res := CellResult{Fp: c.Fp, Arch: c.Arch}
	if c.HasValue {
		res.Value = c.Value
	}
	defer func() {
		if c.charged {
			s.mu.Lock()
			c.charged = false
			s.queued--
			s.mu.Unlock()
		}
	}()

	for {
		// Fast path: stored. Covers both pre-existing artifacts and flights
		// that completed while we waited.
		if payload, ok, err := s.store.Get(c.Fp); err == nil && ok {
			s.mu.Lock()
			s.counters.CellsHit++
			s.mu.Unlock()
			res.Status = StatusHit
			res.ExecCycles = probeExecCycles(payload)
			return res
		}

		s.mu.Lock()
		if f, ok := s.flights[c.Fp]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
				if f.fail != nil {
					res.Status, res.Failure = StatusError, f.fail
					return res
				}
				continue // stored now; loop serves the hit
			case <-s.baseCtx.Done():
				res.Status = StatusError
				res.Failure = &obs.FailureDoc{Class: obs.FailureError, Message: "interrupted by shutdown"}
				return res
			}
		}
		f := &flight{done: make(chan struct{})}
		s.flights[c.Fp] = f
		s.mu.Unlock()

		var sampler *obs.Sampler
		if s.cfg.SampleEvery > 0 {
			sampler = obs.NewSampler(sim.Time(s.cfg.SampleEvery))
		}
		payload, fail := computeCell(c, sampler)
		f.fail = fail
		if fail == nil {
			s.keepSamples(sampler)
			if err := s.store.Put(c.Fp, payload); err != nil {
				f.fail = &obs.FailureDoc{Class: obs.FailureError, Message: err.Error()}
			} else {
				s.appendComputeLog(c.Fp)
			}
		}
		s.mu.Lock()
		delete(s.flights, c.Fp)
		if f.fail == nil {
			s.counters.CellsComputed++
		} else {
			s.counters.CellsFailed++
		}
		s.mu.Unlock()
		close(f.done)

		if f.fail != nil {
			res.Status, res.Failure = StatusError, f.fail
			return res
		}
		res.Status = StatusComputed
		res.ExecCycles = probeExecCycles(payload)
		return res
	}
}

// keepSamples retains the tail of the latest computed cell's sample rows
// for /statusz.
func (s *Server) keepSamples(sampler *obs.Sampler) {
	if sampler == nil {
		return
	}
	rows := sampler.Samples()
	const keep = 64
	if len(rows) > keep {
		rows = rows[len(rows)-keep:]
	}
	s.mu.Lock()
	s.samples = append(s.samples[:0], rows...)
	s.mu.Unlock()
}

// Keys lists the store's fingerprints (diagnostics).
func (s *Server) Keys() []string {
	keys := s.store.Keys()
	sort.Strings(keys)
	return keys
}
