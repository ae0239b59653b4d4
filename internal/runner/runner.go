// Package runner fans independent simulation jobs across a bounded pool of
// worker goroutines while preserving the exact observable behaviour of a
// serial loop. Every experiment in this repository — figure sweeps, tables,
// chaos campaigns, protocol-checker replays — is a set of self-contained
// simulations (each owns its engine, machine, and RNGs), so they can run
// concurrently; what must NOT change is the order in which their results
// are observed, because progress lines, memo caches, and artifact files are
// all order-sensitive.
//
// The contract:
//
//   - Results are keyed by job index, never by completion order.
//   - The done callback (MapStream) fires in strict index order, on the
//     calling goroutine, so callers may touch shared state (caches,
//     writers) without locks.
//   - workers == 1 runs every job inline on the calling goroutine — the
//     serial loop, bit for bit, with no goroutines spawned at all.
//   - A job panic is captured as a *PanicError; it cancels the pool and is
//     returned like any other error.
//   - On error, the error with the lowest job index wins, and every job
//     with a smaller index is guaranteed to have completed — so partial
//     results below the failure point are trustworthy.
//   - On cancellation, jobs already in flight finish and their results are
//     recorded; MapPartial's completed markers report exactly which jobs
//     ran to completion, so a draining caller can account for (journal,
//     persist) every finished unit of work.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// PanicError wraps a panic recovered from a job so the sweep survives and
// the failure is attributable to one job.
type PanicError struct {
	Index int
	Value interface{}
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Value)
}

// JobError wraps a job's error with its index so callers can report which
// point of a sweep failed.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("runner: job %d: %v", e.Index, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Workers normalizes a -jobs flag value: n if positive, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) across workers goroutines and returns the results
// keyed by index. See MapStream for the full contract; Map is MapStream
// with no per-result callback.
func Map[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) ([]T, error) {
	return MapStream(ctx, workers, n, fn, nil)
}

// MapStream runs fn(0..n-1) across workers goroutines. As results arrive
// they are released in strict index order: done(i, result) — if non-nil —
// is invoked on MapStream's calling goroutine for i = 0, 1, 2, ... with no
// gaps up to the first failure. The returned slice holds every result by
// index.
//
// The first error (by job index, not completion time) cancels the context
// seen by remaining jobs and is returned, wrapped in *JobError (or
// *PanicError for a panic). Jobs already running are allowed to finish;
// jobs not yet started are skipped. All skipped indices are strictly
// greater than the returned error's index.
func MapStream[T any](ctx context.Context, workers, n int, fn func(int) (T, error), done func(int, T)) ([]T, error) {
	results, _, err := MapPartial(ctx, workers, n, fn, done)
	return results, err
}

// MapPartial is MapStream with a partial-results marker: completed[i]
// reports whether job i ran fn to a successful return, so results[i] is a
// real result rather than a zero value. The distinction only matters on a
// failed or cancelled run — in-flight jobs are allowed to finish after
// cancellation, and their results ARE recorded (with completed[i] = true)
// even though done is no longer invoked for them. Callers that must
// account for every finished unit of work on shutdown — ccserved's drain
// journals exactly the cells that completed — consult the marker instead
// of guessing from the error index.
//
// Invariants: completed[i] implies results[i] holds fn(i)'s result;
// done(i, …) was invoked iff completed[j] for every j <= i and no job
// <= i failed; on a nil error every entry of completed is true.
func MapPartial[T any](ctx context.Context, workers, n int, fn func(int) (T, error), done func(int, T)) ([]T, []bool, error) {
	if n < 0 {
		panic(fmt.Sprintf("runner: negative job count %d", n))
	}
	results := make([]T, n)
	completed := make([]bool, n)
	if n == 0 {
		return results, completed, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	if workers == 1 {
		// Serial fast path: the plain loop, on this goroutine. No pool, no
		// channels, no goroutines — callers get today's behaviour exactly.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, completed, &JobError{Index: i, Err: err}
			}
			r, err := runJob(i, fn)
			if err != nil {
				return results, completed, err
			}
			results[i] = r
			completed[i] = true
			if done != nil {
				done(i, r)
			}
		}
		return results, completed, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		result T
		err    error
	}
	// jobs feeds indices to workers in ascending order; each worker pulls
	// the next unclaimed index. Ascending dispatch (plus the pool draining
	// lower indices first) is what guarantees that when job i fails, no
	// job below i was skipped.
	jobs := make(chan int)
	outcomes := make([]chan outcome, n)
	for i := range outcomes {
		outcomes[i] = make(chan outcome, 1)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r, err := runJob(i, fn)
				outcomes[i] <- outcome{result: r, err: err}
			}
		}()
	}

	// Feeder: dispatch indices in order until cancelled. Closing jobs on
	// cancellation is what lets workers exit early.
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Mark undispatched jobs as skipped so the collector
				// below never blocks on an outcome no worker will send.
				for ; i < n; i++ {
					outcomes[i] <- outcome{err: &JobError{Index: i, Err: ctx.Err()}}
				}
				return
			}
		}
	}()

	// Collect in index order on the calling goroutine. The first error
	// cancels the feeder; collection continues (jobs already dispatched
	// still post outcomes, and are marked completed) but done is no longer
	// invoked and the first error — necessarily the lowest-index one — is
	// kept.
	var firstErr error
	for i := 0; i < n; i++ {
		o := <-outcomes[i]
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
				cancel()
			}
			continue
		}
		results[i] = o.result
		completed[i] = true
		if firstErr == nil && done != nil {
			done(i, o.result)
		}
	}
	wg.Wait()
	return results, completed, firstErr
}

// runJob invokes fn(i) with panic capture, reporting the job's busy window
// to the installed usage recorder (if any).
func runJob[T any](i int, fn func(int) (T, error)) (result T, err error) {
	if end := jobBegin(); end != nil {
		defer end()
	}
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: p, Stack: string(buf)}
		}
	}()
	r, jerr := fn(i)
	if jerr != nil {
		return result, &JobError{Index: i, Err: jerr}
	}
	return r, nil
}
