package main

import (
	"context"
	"runtime"
	"time"

	"ccnuma/internal/runner"
)

// passRun executes one pass of a workload and accumulates its cells and the
// host-side measurements the metrics need.
type passRun struct {
	w     *benchWorkload
	seed  int64
	clock time.Time // the run's clock, for span timestamps
	spans *spanLog  // nil when untraced

	cells []cell
	// rounds are the calibration rounds timed between the pass's cells and
	// at its end (see hostspeed.go).
	rounds []time.Duration
	// elapsed is the pass's wall time, and wall the same without its
	// reference cells and calibration rounds.
	elapsed, wall time.Duration
	// mem is the allocator's activity while metered (non-reference) cells
	// ran: per cell for serial cells, over the whole pool for pooled ones.
	mem memDelta
	// poolWall and poolBusy are the pooled phases' wall time and busy-worker
	// time, as runner.Observe records them.
	poolWall, poolBusy time.Duration
}

// memDelta is the change of the runtime's allocation counters over an
// interval.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.mallocs += after.Mallocs - before.Mallocs
	d.bytes += after.TotalAlloc - before.TotalAlloc
	d.gcs += uint64(after.NumGC - before.NumGC)
	d.pause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// runPass runs one pass of w, with a calibration round before each serial
// cell and one at the end, and returns it.
func runPass(w *benchWorkload, seed int64, clock time.Time, spans *spanLog, index int) *passRun {
	p := &passRun{w: w, seed: seed, clock: clock, spans: spans}
	start := time.Now()
	w.pass(p)
	p.calibrate()
	end := time.Now()
	p.elapsed = end.Sub(start)
	p.wall = p.elapsed
	for i := range p.cells {
		if p.cells[i].reference {
			p.wall -= p.cells[i].wall()
		}
	}
	for _, d := range p.rounds {
		p.wall -= d
	}
	spans.add("pass", 0, start.Sub(clock), p.elapsed, map[string]any{"pass": index, "cells": len(p.cells)})
	return p
}

// serial runs specs one after another on the calling goroutine, each after a
// calibration round, and returns their cells.
func (p *passRun) serial(specs ...spec) []cell {
	out := make([]cell, 0, len(specs))
	for i := range specs {
		p.calibrate()
		before := readMem()
		c := simulate(&specs[i], p.clock, 1)
		after := readMem()
		if !c.reference {
			p.mem.add(&before, &after)
		}
		p.spans.addCell(&c)
		out = append(out, c)
	}
	p.cells = append(p.cells, out...)
	return out
}

// pool runs specs across jobs workers through runner.MapStream, collecting
// the cells in spec order.
func (p *passRun) pool(specs []spec) {
	lanes := make(chan int, jobs) // one token per worker, naming its span track
	for i := 1; i <= jobs; i++ {
		lanes <- i
	}
	var usage runner.Usage
	stop := runner.Observe(&usage)
	before := readMem()
	_, err := runner.MapStream(context.Background(), jobs, len(specs),
		func(i int) (cell, error) {
			lane := <-lanes
			defer func() { lanes <- lane }()
			return simulate(&specs[i], p.clock, lane), nil
		},
		func(i int, c cell) {
			p.spans.addCell(&c)
			p.cells = append(p.cells, c)
		})
	after := readMem()
	stop()
	if err != nil {
		panic(err) // simulate recovers every panic and the jobs never fail
	}
	p.mem.add(&before, &after)
	_, wallMs, busyMs, _, _ := usage.Summary(1)
	p.poolWall += time.Duration(wallMs * 1e6)
	p.poolBusy += time.Duration(busyMs * 1e6)
}

// calibrate times one calibration round between cells.
func (p *passRun) calibrate() {
	d := calibrate()
	p.rounds = append(p.rounds, d)
	p.spans.add("calibrate", 0, time.Since(p.clock)-d, d, nil) // the round ends as calibrate returns
}

// metered returns the pass's counts over its non-reference cells, and the
// summed Machine.Run time of those cells.
func (p *passRun) metered() (c counts, run time.Duration) {
	for i := range p.cells {
		if !p.cells[i].reference {
			c.add(p.cells[i].counts)
			run += p.cells[i].run
		}
	}
	return c, run
}
