package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/fault"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/machine"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// spec describes one simulation of a pass.
type spec struct {
	name  string // unique within the workload; the key of its pin
	app   string
	cfg   config.Config
	size  workload.SizeClass
	seed  int64
	micro bool // the private-line micro kernel instead of the named app

	// twin names the serial run whose results this sharded run must equal.
	twin string
	// reference marks a serial twin: it runs only for comparison and is left
	// out of the end-to-end metrics.
	reference bool
	// sched is the fault schedule to inject, or nil.
	sched *fault.Schedule
	// pilot counts network messages to size the app's fault schedules.
	pilot bool
}

// cell is the outcome of one simulation.
type cell struct {
	name      string
	reference bool
	twin      string
	lane      int
	// start is when the cell began on the run's clock; setup, run and
	// verify (which includes the drain checks) split its wall time.
	start, setup, run, verify time.Duration

	exec      sim.Time
	digest    string
	pilotMsgs uint64
	counts    counts
	err       error
}

func (c *cell) wall() time.Duration { return c.setup + c.run + c.verify }

// counts are the simulator-side counters of one or more cells, read from
// stats.Run and the Machine, Bus, Directory, Network and sim.Cluster
// accessors after each run.
type counts struct {
	refs, l1Hits, l2Hits     uint64
	events, maxPending       uint64
	shardEvents, windows     uint64
	fences, crossSends       uint64
	busTxns, busRetries      uint64
	dispatches, busyCycles   uint64
	queueDelay               uint64
	nacks, retries, timeouts uint64
	dirHits, dirMisses       uint64
	messages, flits, faults  uint64
}

func (c *counts) add(o counts) {
	c.refs += o.refs
	c.l1Hits += o.l1Hits
	c.l2Hits += o.l2Hits
	c.events += o.events
	if o.maxPending > c.maxPending {
		c.maxPending = o.maxPending
	}
	c.shardEvents += o.shardEvents
	c.windows += o.windows
	c.fences += o.fences
	c.crossSends += o.crossSends
	c.busTxns += o.busTxns
	c.busRetries += o.busRetries
	c.dispatches += o.dispatches
	c.busyCycles += o.busyCycles
	c.queueDelay += o.queueDelay
	c.nacks += o.nacks
	c.retries += o.retries
	c.timeouts += o.timeouts
	c.dirHits += o.dirHits
	c.dirMisses += o.dirMisses
	c.messages += o.messages
	c.flits += o.flits
	c.faults += o.faults
}

// build constructs the machine and sets up the workload: the part of a
// simulation that setup_s times.
func build(s *spec) (*machine.Machine, workload.Workload, error) {
	m, err := machine.New(s.cfg, s.app)
	if err != nil {
		return nil, nil, err
	}
	var w workload.Workload
	if s.micro {
		// Private lines only: after the first touch of each of its 64
		// lines, a processor's references all hit in L1.
		w = workload.NewMicro(20000, 0, 30, m.NProcs())
	} else if w, err = workload.NewSeeded(s.app, s.size, m.NProcs(), s.seed); err != nil {
		return nil, nil, err
	}
	if err := w.Setup(m); err != nil {
		return nil, nil, err
	}
	return m, w, nil
}

// simulate runs one spec with the checks chaos.Campaign applies:
// Machine.Run's own completion and coherence checks, the workload's
// Verify, and for fault schedules a drained network. A panic (the recovery
// layer is fail-stop) fails the cell, not the benchmark.
func simulate(s *spec, clock time.Time, lane int) (c cell) {
	c = cell{name: s.name, reference: s.reference, twin: s.twin, lane: lane}
	mark := time.Now()
	c.start = mark.Sub(clock)
	lap := func(d *time.Duration) {
		now := time.Now()
		*d, mark = now.Sub(mark), now
	}
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("panic: %v", p)
		}
	}()

	m, w, err := build(s)
	if err != nil {
		c.err = err
		return c
	}
	var inj *fault.Injector
	if s.sched != nil {
		inj = m.InjectFaults(s.sched)
	}
	var msgs atomic.Uint64
	if s.pilot {
		m.Net.Fault = func(src, dst int, payload interface{}) interconnect.Decision {
			msgs.Add(1)
			return interconnect.Decision{}
		}
	}
	lap(&c.setup)

	r, err := m.Run(w.Body)
	lap(&c.run)
	if err != nil {
		c.err = err
		return c
	}
	defer lap(&c.verify)
	if err := w.Verify(); err != nil {
		c.err = fmt.Errorf("verification failed: %w", err)
		return c
	}
	if s.sched != nil {
		if n := m.Net.InFlight(); n != 0 {
			c.err = fmt.Errorf("network did not drain: %d frames still in flight", n)
			return c
		}
		for n := 0; n < s.cfg.Nodes; n++ {
			if q := m.Net.OutQueued(n); q != 0 {
				c.err = fmt.Errorf("network did not drain: node %d NI still queues %d frames", n, q)
				return c
			}
		}
	}
	c.exec = r.ExecTime
	c.digest = digest(r)
	c.pilotMsgs = msgs.Load()
	c.counts = countsOf(m, r, inj)
	return c
}

// digest is a SHA-256 over the run's execution time and its named counters
// in sorted order: any change to a simulated statistic changes it.
func digest(r *stats.Run) string {
	h := sha256.New()
	fmt.Fprintf(h, "exec=%d\n", r.ExecTime)
	for _, name := range r.CounterNames() {
		fmt.Fprintf(h, "%s=%d\n", name, r.Counter(name))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func countsOf(m *machine.Machine, r *stats.Run, inj *fault.Injector) counts {
	c := counts{
		refs:     r.Counter("reads") + r.Counter("writes"),
		l1Hits:   r.Counter("l1Hits"),
		l2Hits:   r.Counter("l2Hits"),
		events:   m.Executed(),
		messages: m.Net.Messages(),
		flits:    m.Net.Flits(),
	}
	if cl := m.Cluster(); cl != nil {
		c.maxPending = uint64(cl.MaxPending())
		c.shardEvents, c.windows = cl.Executed(), cl.Windows()
		c.fences, c.crossSends = cl.Fences(), cl.CrossSends()
	} else {
		c.maxPending = uint64(m.Eng.MaxPending())
	}
	for _, b := range m.Buses {
		for k := smpbus.Read; k <= smpbus.FetchEx; k++ {
			c.busTxns += b.Count(k)
		}
		c.busRetries += b.Retries()
	}
	for i := range r.Controllers {
		cs := &r.Controllers[i]
		c.dispatches += cs.Dispatches()
		c.busyCycles += uint64(cs.Busy())
		c.queueDelay += uint64(cs.QueueDelay())
	}
	c.nacks, _, c.retries, c.timeouts, _, _ = r.RecoveryTotals()
	for _, d := range m.Dirs {
		c.dirHits += d.CacheHits()
		c.dirMisses += d.CacheMisses()
	}
	if inj != nil {
		c.faults = inj.AppliedTotal()
	}
	return c
}
