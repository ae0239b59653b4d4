// Runner-pool utilization document: the wall-clock busy/idle worker series
// recorded by internal/runner's usage observer, reduced to the document
// ccserved's /statusz reports as its pool. Scheduling gaps — a serial pilot
// phase, a straggler job pinning one worker while the rest sit idle —
// show up directly as buckets with Busy well below the worker count.
package obs

import "ccnuma/internal/runner"

// RunnerUtilDoc summarizes one observed pool run.
type RunnerUtilDoc struct {
	// Jobs is how many pool jobs ran while the recorder was installed.
	Jobs int `json:"jobs"`
	// WallMs spans the first job start to the last job end.
	WallMs float64 `json:"wall_ms"`
	// BusyMs is the busy-worker integral: worker-milliseconds of actual
	// job execution. BusyMs / WallMs is the mean busy-worker count.
	BusyMs float64 `json:"busy_ms"`
	// AvgBusy and PeakBusy are the mean and maximum concurrent jobs.
	AvgBusy  float64 `json:"avg_busy"`
	PeakBusy int     `json:"peak_busy"`
	// Series is the bucketed busy-workers-over-time curve.
	Series []runner.UtilSample `json:"series,omitempty"`
}

// NewRunnerUtilDoc reduces a usage recording to its artifact document with
// the given series resolution. Returns nil when nothing was recorded.
func NewRunnerUtilDoc(u *runner.Usage, buckets int) *RunnerUtilDoc {
	jobs, wallMs, busyMs, peak, series := u.Summary(buckets)
	if wallMs <= 0 {
		return nil
	}
	return &RunnerUtilDoc{
		Jobs: jobs, WallMs: wallMs, BusyMs: busyMs,
		AvgBusy: busyMs / wallMs, PeakBusy: peak, Series: series,
	}
}
