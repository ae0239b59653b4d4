package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Samples is how many measurements it is
// the median (or percentile) of; it is printed but not part of the JSON.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// endToEnd computes the user-visible metrics of an untraced run. Host times
// are scaled to the reference host: a pass's by its own calibration rounds,
// setup_s by the rounds timed among the constructions.
func endToEnd(r *runResult) map[string]metric {
	var walls, rates, allocs []float64
	for _, p := range r.passes {
		c, run := p.metered()
		scale := hostScale(p.rounds)
		walls = append(walls, p.wall.Seconds()*scale)
		rates = append(rates, ratio(float64(c.refs), run.Seconds()*scale))
		allocs = append(allocs, ratio(float64(p.mem.mallocs), float64(c.refs)))
	}
	scale := hostScale(r.setupRounds)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds() * scale
	}
	n := len(r.passes)
	return map[string]metric{
		"wall_s":         {median(walls), "s", n},
		"sim_refs_per_s": {median(rates), "refs/s", n},
		"setup_s":        {median(setups), "s", len(setups)},
		"allocs_per_ref": {median(allocs), "allocs/ref", n},
		"max_rss_mb":     {r.maxRSSKiB / 1024, "MB", 1},
	}
}

// perLayer computes the traced run's per-layer ledger: the counts of one
// pass (they repeat exactly), host times and rates as medians over the
// traced passes, each scaled by its pass's host scale like the end-to-end
// metrics, and each layer's share of CPU samples.
func perLayer(r *runResult) map[string]metric {
	c, _ := r.passes[0].metered()
	n := len(r.passes)
	var evRate, allocsPerEvent, bytesPerRef, gcs, pauseFrac, busy, walls []float64
	var cellWalls []float64
	for _, p := range r.passes {
		pc, run := p.metered()
		scale := hostScale(p.rounds)
		evRate = append(evRate, ratio(float64(pc.events), run.Seconds()*scale))
		allocsPerEvent = append(allocsPerEvent, ratio(float64(p.mem.mallocs), float64(pc.events)))
		bytesPerRef = append(bytesPerRef, ratio(float64(p.mem.bytes), float64(pc.refs)))
		gcs = append(gcs, float64(p.mem.gcs))
		pauseFrac = append(pauseFrac, ratio(p.mem.pause.Seconds(), p.wall.Seconds()))
		busy = append(busy, ratio(p.poolBusy.Seconds(), p.poolWall.Seconds()))
		walls = append(walls, p.wall.Seconds()*scale)
		for i := range p.cells {
			cellWalls = append(cellWalls, p.cells[i].wall().Seconds()*scale)
		}
	}
	sort.Float64s(cellWalls)

	m := map[string]metric{
		"cpu.refs":                     {float64(c.refs), "count", 1},
		"sim.events":                   {float64(c.events), "count", 1},
		"sim.events_per_ref":           {ratio(float64(c.events), float64(c.refs)), "events/ref", 1},
		"sim.events_per_s":             {median(evRate), "events/s", n},
		"sim.max_pending":              {float64(c.maxPending), "events", 1},
		"shard.windows":                {float64(c.windows), "count", 1},
		"shard.events_per_window":      {ratio(float64(c.shardEvents), float64(c.windows)), "events/window", 1},
		"shard.cross_sends":            {float64(c.crossSends), "count", 1},
		"shard.fences":                 {float64(c.fences), "count", 1},
		"shard.speedup":                {shardSpeedup(r.reference), "x", 1},
		"cache.l1_hit_ratio":           {ratio(float64(c.l1Hits), float64(c.refs)), "ratio", 1},
		"cache.l2_hit_ratio":           {ratio(float64(c.l2Hits), float64(c.refs-c.l1Hits)), "ratio", 1},
		"smpbus.txns":                  {float64(c.busTxns), "count", 1},
		"smpbus.retries":               {float64(c.busRetries), "count", 1},
		"core.dispatches":              {float64(c.dispatches), "count", 1},
		"core.busy_cycles":             {float64(c.busyCycles), "cycles", 1},
		"core.queue_delay_ns":          {5 * ratio(float64(c.queueDelay), float64(c.dispatches)), "ns", 1},
		"core.nacks":                   {float64(c.nacks), "count", 1},
		"core.retries":                 {float64(c.retries), "count", 1},
		"core.timeouts":                {float64(c.timeouts), "count", 1},
		"directory.dircache_hit_ratio": {ratio(float64(c.dirHits), float64(c.dirHits+c.dirMisses)), "ratio", 1},
		"interconnect.messages":        {float64(c.messages), "count", 1},
		"interconnect.flits":           {float64(c.flits), "count", 1},
		"fault.applied":                {float64(c.faults), "count", 1},
		"machine.setup_alloc_mb":       {float64(r.setupAllocBytes) / (1 << 20), "MB", len(r.setups)},
		"alloc.allocs_per_event":       {median(allocsPerEvent), "allocs/event", n},
		"alloc.bytes_per_ref":          {median(bytesPerRef), "B/ref", n},
		"alloc.gc_cycles":              {median(gcs), "count", n},
		"alloc.gc_pause_frac":          {median(pauseFrac), "ratio", n},
		"runner.busy_workers":          {median(busy), "workers", n},
		"runner.cells":                 {float64(len(cellWalls)), "count", 1},
		"runner.cell_p50_s":            {percentile(cellWalls, 50), "s", len(cellWalls)},
		"runner.cell_p99_s":            {percentile(cellWalls, 99), "s", len(cellWalls)},
		"trace.overhead":               {ratio(median(walls), r.reference.wall.Seconds()*hostScale(r.reference.rounds)) - 1, "ratio", n},
	}
	for _, l := range layers {
		m[l+".self_frac"] = metric{r.shares[l], "ratio", int(r.samples)}
	}
	return m
}

// hostScale is refRound over the mean of the calibration rounds timed among
// some measurements: the factor that turns their host times into the times
// they would take on the reference host (see hostspeed.go).
func hostScale(rounds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range rounds {
		sum += d
	}
	return ratio(refRound.Seconds()*float64(len(rounds)), sum.Seconds())
}

// shardSpeedup is the serial twins' summed Machine.Run time over the
// sharded runs' (0 when the pass has no sharded runs).
func shardSpeedup(p *passRun) float64 {
	var serial, sharded time.Duration
	for i := range p.cells {
		c := &p.cells[i]
		switch {
		case c.reference:
			serial += c.run
		case c.twin != "":
			sharded += c.run
		}
	}
	return ratio(serial.Seconds(), sharded.Seconds())
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
