// Pool utilization: wall-clock observation of how many workers are busy
// at each instant of a MapStream run. Simulated time never appears here —
// this is host telemetry for the benchmark harness, answering "did the
// pool actually keep its workers fed, or did scheduling gaps (a serial
// pilot phase, a long straggler job, dispatch stalls) leave them idle?".
package runner

import (
	"sync"
	"sync/atomic"
	"time"
)

// usageEvent is one busy-count transition: at nanoseconds after Observe,
// the number of running jobs changed by delta.
type usageEvent struct {
	at    time.Duration
	delta int
}

// Usage accumulates worker busy/idle transitions for every MapStream call
// executed while it is installed via Observe. It is safe for concurrent
// use by pool workers.
type Usage struct {
	mu     sync.Mutex
	start  time.Time
	events []usageEvent
	jobs   int
}

// observer is the installed recorder; nil means recording is off and the
// pool pays one atomic load per job.
var observer atomic.Pointer[Usage]

// Observe installs u as the pool-wide usage recorder and starts its clock.
// It returns the uninstall function; recording covers every MapStream job
// that starts in between (including the workers == 1 serial path, which
// records as a single always-busy worker).
func Observe(u *Usage) func() {
	u.mu.Lock()
	u.start = time.Now()
	u.events = u.events[:0]
	u.jobs = 0
	u.mu.Unlock()
	observer.Store(u)
	return func() { observer.CompareAndSwap(u, nil) }
}

// jobBegin records a job start on the installed recorder (if any) and
// returns the matching end hook, or nil when recording is off.
func jobBegin() func() {
	u := observer.Load()
	if u == nil {
		return nil
	}
	u.add(+1)
	return func() { u.add(-1) }
}

func (u *Usage) add(delta int) {
	u.mu.Lock()
	u.events = append(u.events, usageEvent{at: time.Since(u.start), delta: delta})
	if delta > 0 {
		u.jobs++
	}
	u.mu.Unlock()
}

// UtilSample is one bucket of the utilization series: the mean number of
// busy workers over [AtMs, AtMs+bucket).
type UtilSample struct {
	AtMs float64 `json:"at_ms"`
	Busy float64 `json:"busy"`
}

// Summary reduces the recording to the numbers the benchmark artifact
// reports: jobs observed, wall time from first start to last end, the
// busy-worker integral (worker-milliseconds of actual work), the peak
// concurrency reached, and a bucketed busy-workers-over-time series (times
// relative to the first job start). With fewer than two events everything
// is zero.
func (u *Usage) Summary(buckets int) (jobs int, wallMs, busyMs float64, peak int, series []UtilSample) {
	u.mu.Lock()
	events := append([]usageEvent(nil), u.events...)
	jobs = u.jobs
	u.mu.Unlock()
	if len(events) < 2 {
		return jobs, 0, 0, 0, nil
	}
	first := events[0].at
	for i := range events {
		events[i].at -= first
	}
	wall := events[len(events)-1].at
	if wall <= 0 {
		return jobs, 0, 0, 0, nil
	}
	wallMs = float64(wall.Nanoseconds()) / 1e6
	if buckets < 1 {
		buckets = 1
	}
	series = make([]UtilSample, buckets)
	width := wall / time.Duration(buckets)
	if width <= 0 {
		width = 1
	}

	busy := 0
	var busyInt time.Duration // integral of busy count over time
	for i, ev := range events {
		if i > 0 && busy > 0 {
			lo, hi := events[i-1].at, ev.at
			busyInt += (hi - lo) * time.Duration(busy)
			for b := int(lo / width); b < len(series); b++ {
				bLo := width * time.Duration(b)
				if bLo >= hi {
					break
				}
				olo, ohi := max(lo, bLo), min(hi, bLo+width)
				if ohi > olo {
					series[b].Busy += float64((ohi - olo).Nanoseconds()) * float64(busy)
				}
			}
		}
		busy += ev.delta
		if busy > peak {
			peak = busy
		}
	}
	busyMs = float64(busyInt.Nanoseconds()) / 1e6
	for i := range series {
		series[i].AtMs = float64((width * time.Duration(i)).Nanoseconds()) / 1e6
		series[i].Busy /= float64(width.Nanoseconds())
	}
	return jobs, wallMs, busyMs, peak, series
}
