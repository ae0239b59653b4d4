// Package stats accumulates and reduces the measurements the paper reports:
// execution time, instruction counts, requests to the coherence controllers
// (RCCPI), protocol-engine occupancy and utilization, queueing delays,
// request inter-arrival rates, and the derived PP penalty. Model components
// update the raw counters; the reduction methods implement the exact
// definitions of Section 3.3 of the paper.
package stats

import (
	"fmt"
	"sort"

	"ccnuma/internal/sim"
)

// EngineStats holds the per-protocol-engine measurements. In one-engine
// controllers only engine 0 is used; in two-engine controllers engine 0 is
// the LPE (local addresses) and engine 1 the RPE (remote addresses) under
// the paper's split policy.
type EngineStats struct {
	Busy       sim.Time // cycles the engine was occupied by handlers
	Dispatches uint64   // handlers dispatched
	QueueDelay sim.Time // total arrival-to-dispatch delay of its requests
	// QueueDelayHist is the distribution of those per-dispatch delays, so
	// percentiles (not just the mean) of Table 6's queueing column exist.
	QueueDelayHist Histogram
}

// MeanQueueDelay returns the average queueing delay per dispatch in cycles.
func (e *EngineStats) MeanQueueDelay() float64 {
	if e.Dispatches == 0 {
		return 0
	}
	return float64(e.QueueDelay) / float64(e.Dispatches)
}

// ControllerStats holds per-coherence-controller measurements.
type ControllerStats struct {
	// Arrivals counts protocol requests entering the controller's queues
	// (bus-side requests, network-side requests, network-side responses).
	Arrivals uint64
	// arrival inter-gap tracking for the paper's arrival-rate metric.
	GapSum      sim.Time
	GapN        uint64
	lastArrival sim.Time
	seenArrival bool

	Engines []EngineStats

	// Robustness counters: NACK/retry flow control and fault recovery.
	// All stay zero unless Config.Robust.
	NacksSent  uint64 // home-side NACKs issued (full queue or retried-owner bounce)
	NacksRecv  uint64 // NACKs processed at the requester (dropped strays excluded)
	Retries    uint64 // requests re-issued after a NACK back-off or timeout
	Timeouts   uint64 // MSHR request timeouts fired
	BusAborts  uint64 // bus transactions aborted on a full bus queue
	StrayDrops uint64 // stale/duplicate responses tolerated and dropped
	// RetryLat is the issue-to-fill service time of requests that needed at
	// least one retry.
	RetryLat Histogram
}

// NoteArrival records a request arrival at time t.
func (c *ControllerStats) NoteArrival(t sim.Time) {
	c.Arrivals++
	if c.seenArrival {
		c.GapSum += t - c.lastArrival
		c.GapN++
	}
	c.seenArrival = true
	c.lastArrival = t
}

// Busy returns the controller's total engine occupancy.
func (c *ControllerStats) Busy() sim.Time {
	var t sim.Time
	for i := range c.Engines {
		t += c.Engines[i].Busy
	}
	return t
}

// Dispatches returns total handlers dispatched on the controller.
func (c *ControllerStats) Dispatches() uint64 {
	var n uint64
	for i := range c.Engines {
		n += c.Engines[i].Dispatches
	}
	return n
}

// QueueDelay returns the total queueing delay across all engines.
func (c *ControllerStats) QueueDelay() sim.Time {
	var t sim.Time
	for i := range c.Engines {
		t += c.Engines[i].QueueDelay
	}
	return t
}

// MeanInterArrival returns the mean request inter-arrival gap in cycles
// (0 when fewer than two arrivals occurred).
func (c *ControllerStats) MeanInterArrival() float64 {
	if c.GapN == 0 {
		return 0
	}
	return float64(c.GapSum) / float64(c.GapN)
}

// Run aggregates the results of one simulation.
type Run struct {
	Arch     string   // HWC / PPC / 2HWC / 2PPC
	App      string   // workload name
	ExecTime sim.Time // parallel-phase execution time

	Instructions uint64 // total instructions over all processors

	Controllers []ControllerStats

	// MissLatency is the distribution of cache-miss service times (from
	// bus issue to processor restart) over all processors.
	MissLatency Histogram

	// Extra named counters (bus transactions, network messages, cache
	// hits/misses, ...) for validation and the example programs. The map
	// is made when the first counter is recorded, by Add or by a writer
	// that sizes it for all of its counters.
	Counters map[string]uint64

	// Attribution is the per-stage decomposition of MissLatency recorded
	// by span tiling (nil unless the run enabled attribution).
	Attribution *Attribution
}

// StageAttribution is the per-transaction distribution of one span stage's
// cycles, over the completed transactions that spent time in the stage.
type StageAttribution struct {
	Stage string // stage name (obs stage table)
	Hist  Histogram
}

// Attribution is the causal latency-attribution aggregate of one run:
// every completed miss's latency (Run.MissLatency, which also gives the
// completed count and the end-to-end distribution) partitioned
// cycle-exactly into stage segments.
type Attribution struct {
	Violations uint64 // conservation violations (must be zero)
	Stages     []StageAttribution
}

// TotalCycles returns the attributed cycles summed over all stages (equal
// to Run.MissLatency.Sum when conservation holds).
func (a *Attribution) TotalCycles() sim.Time {
	var t int64
	for i := range a.Stages {
		t += a.Stages[i].Hist.Sum
	}
	return sim.Time(t)
}

// StageShare returns the fraction of all attributed cycles spent in the
// named stage (0 when the run attributed nothing).
func (a *Attribution) StageShare(stage string) float64 {
	if a == nil {
		return 0
	}
	total := a.TotalCycles()
	if total <= 0 {
		return 0
	}
	for i := range a.Stages {
		if a.Stages[i].Stage == stage {
			return float64(a.Stages[i].Hist.Sum) / float64(total)
		}
	}
	return 0
}

// NewRun creates an empty Run with one controller per entry of
// engineCounts, controller i holding engineCounts[i] engines — the counts
// may differ per node on heterogeneous machines (config.EngineCounts).
func NewRun(arch, app string, engineCounts []int) *Run {
	r := &Run{
		Arch:        arch,
		App:         app,
		Controllers: make([]ControllerStats, len(engineCounts)),
	}
	for i := range r.Controllers {
		n := engineCounts[i]
		if n < 1 {
			n = 1
		}
		r.Controllers[i].Engines = make([]EngineStats, n)
	}
	return r
}

// Add increments a named counter.
func (r *Run) Add(name string, delta uint64) {
	if r.Counters == nil {
		r.Counters = make(map[string]uint64)
	}
	r.Counters[name] += delta
}

// Counter returns a named counter's value (0 when absent).
func (r *Run) Counter(name string) uint64 { return r.Counters[name] }

// CounterNames returns the sorted names of all non-zero counters.
func (r *Run) CounterNames() []string {
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalArrivals returns requests to all coherence controllers.
func (r *Run) TotalArrivals() uint64 {
	var n uint64
	for i := range r.Controllers {
		n += r.Controllers[i].Arrivals
	}
	return n
}

// TotalOccupancy returns the summed engine occupancy of all controllers,
// the quantity whose PPC/HWC ratio the paper reports as ~2.5.
func (r *Run) TotalOccupancy() sim.Time {
	var t sim.Time
	for i := range r.Controllers {
		t += r.Controllers[i].Busy()
	}
	return t
}

// QueueDelayHistogram merges the arrival-to-dispatch delay distributions of
// every engine of every controller into one histogram.
func (r *Run) QueueDelayHistogram() Histogram {
	var h Histogram
	for i := range r.Controllers {
		for j := range r.Controllers[i].Engines {
			h.Merge(&r.Controllers[i].Engines[j].QueueDelayHist)
		}
	}
	return h
}

// RetryLatencyHistogram merges the retry-latency distributions (issue-to-
// fill service time of requests that needed at least one retry) of every
// controller.
func (r *Run) RetryLatencyHistogram() Histogram {
	var h Histogram
	for i := range r.Controllers {
		h.Merge(&r.Controllers[i].RetryLat)
	}
	return h
}

// RecoveryTotals sums the robustness counters over all controllers, in the
// order (nacksSent, nacksRecv, retries, timeouts, busAborts, strayDrops).
func (r *Run) RecoveryTotals() (nacksSent, nacksRecv, retries, timeouts, busAborts, strayDrops uint64) {
	for i := range r.Controllers {
		c := &r.Controllers[i]
		nacksSent += c.NacksSent
		nacksRecv += c.NacksRecv
		retries += c.Retries
		timeouts += c.Timeouts
		busAborts += c.BusAborts
		strayDrops += c.StrayDrops
	}
	return
}

// RCCPI returns requests to coherence controllers per instruction. The
// paper's tables report 1000×RCCPI.
func (r *Run) RCCPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.TotalArrivals()) / float64(r.Instructions)
}

// AvgUtilization returns the average controller occupancy divided by
// execution time (the paper's "average HWC/PPC utilization"). For
// two-engine controllers pass an engine index of -1 to aggregate both, or
// 0/1 for the LPE/RPE columns of Table 7.
func (r *Run) AvgUtilization(engine int) float64 {
	if r.ExecTime == 0 || len(r.Controllers) == 0 {
		return 0
	}
	var busy sim.Time
	for i := range r.Controllers {
		if engine < 0 {
			busy += r.Controllers[i].Busy()
		} else if engine < len(r.Controllers[i].Engines) {
			busy += r.Controllers[i].Engines[engine].Busy
		}
	}
	return float64(busy) / float64(len(r.Controllers)) / float64(r.ExecTime)
}

// AvgQueueDelay returns the mean queueing delay per dispatched request in
// cycles, over all controllers (engine = -1) or one engine index.
func (r *Run) AvgQueueDelay(engine int) float64 {
	var delay sim.Time
	var n uint64
	for i := range r.Controllers {
		if engine < 0 {
			delay += r.Controllers[i].QueueDelay()
			n += r.Controllers[i].Dispatches()
		} else if engine < len(r.Controllers[i].Engines) {
			delay += r.Controllers[i].Engines[engine].QueueDelay
			n += r.Controllers[i].Engines[engine].Dispatches
		}
	}
	if n == 0 {
		return 0
	}
	return float64(delay) / float64(n)
}

// AvgQueueDelayNs returns AvgQueueDelay converted to nanoseconds, the unit
// of Tables 6 and 7.
func (r *Run) AvgQueueDelayNs(engine int) float64 {
	return r.AvgQueueDelay(engine) * 5.0
}

// ArrivalRatePerMicrosecond returns the paper's arrival-rate metric: the
// reciprocal of the mean inter-arrival time of requests to each controller
// (averaged over controllers), scaled to requests per microsecond (200 CPU
// cycles).
func (r *Run) ArrivalRatePerMicrosecond() float64 {
	if len(r.Controllers) == 0 {
		return 0
	}
	var sum float64
	var n int
	for i := range r.Controllers {
		gap := r.Controllers[i].MeanInterArrival()
		if gap > 0 {
			sum += 200.0 / gap
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EngineShare returns the fraction of dispatched requests handled by the
// given engine index (Table 7's request-distribution columns).
func (r *Run) EngineShare(engine int) float64 {
	var mine, all uint64
	for i := range r.Controllers {
		if engine < len(r.Controllers[i].Engines) {
			mine += r.Controllers[i].Engines[engine].Dispatches
		}
		all += r.Controllers[i].Dispatches()
	}
	if all == 0 {
		return 0
	}
	return float64(mine) / float64(all)
}

// Penalty returns the PP performance penalty of run r relative to baseline
// b: the relative increase in execution time (e.g. 0.93 for Ocean in the
// paper's base configuration).
func Penalty(b, r *Run) float64 {
	if b == nil || r == nil || b.ExecTime == 0 {
		return 0
	}
	return float64(r.ExecTime)/float64(b.ExecTime) - 1.0
}

// OccupancyRatio returns r's total controller occupancy divided by b's
// (the paper's "PPC/HWC occupancy" column, ~2.5).
func OccupancyRatio(b, r *Run) float64 {
	if b == nil || r == nil || b.TotalOccupancy() == 0 {
		return 0
	}
	return float64(r.TotalOccupancy()) / float64(b.TotalOccupancy())
}

// String summarizes the run for logs.
func (r *Run) String() string {
	return fmt.Sprintf("%s/%s: %d cycles, %d instr, 1000*RCCPI=%.2f, util=%.2f%%",
		r.App, r.Arch, r.ExecTime, r.Instructions, 1000*r.RCCPI(), 100*r.AvgUtilization(-1))
}

// CurvePoint is one (x, y) sample of a measured curve (e.g. the
// penalty-versus-RCCPI calibration of the paper's Section 3.3).
type CurvePoint struct {
	X, Y float64
}
