package machine

import (
	"fmt"

	"ccnuma/internal/fault"
	"ccnuma/internal/sim"
)

// InjectFaults arms a deterministic fault schedule on the machine: message
// faults plug into the network's fault hook, component faults (engine
// stalls, NI brownouts, bus stalls) are scheduled at their simulated times.
// Call before Run. The returned injector reports what actually fired.
func (m *Machine) InjectFaults(sch *fault.Schedule) *fault.Injector {
	inj := fault.NewInjector(sch, m.Cfg.Nodes)
	m.Net.Fault = inj.NetFault
	for _, ev := range inj.ComponentEvents() {
		ev := ev
		if ev.Node < 0 || ev.Node >= m.Cfg.Nodes {
			continue
		}
		// Component faults are node-local, so each arms on the engine that
		// owns its node; when sharded the callbacks touch only that shard's
		// state (NoteApplied counters are only read after Run).
		eng := m.engFor(ev.Node)
		switch ev.Kind {
		case fault.EngineStall:
			eng.At(ev.At, sim.Func(func() {
				if m.CCs[ev.Node].StallEngine(ev.Engine, ev.Dur) {
					inj.NoteApplied(fault.EngineStall)
					m.Tracer.Fault(eng.Now(), ev.Node, ev.Kind.String(), int64(ev.Dur))
				}
			}))
		case fault.Brownout:
			eng.At(ev.At, sim.Func(func() {
				m.Net.Brownout(ev.Node, ev.Out, ev.Dur)
				inj.NoteApplied(fault.Brownout)
				m.Tracer.Fault(eng.Now(), ev.Node, ev.Kind.String(), int64(ev.Dur))
			}))
		case fault.BusStall:
			eng.At(ev.At, sim.Func(func() {
				m.Buses[ev.Node].Stall(ev.Dur)
				inj.NoteApplied(fault.BusStall)
				m.Tracer.Fault(eng.Now(), ev.Node, ev.Kind.String(), int64(ev.Dur))
			}))
		}
	}
	return inj
}

// StallClass is the watchdog's diagnosis of a run that stopped making
// forward progress.
type StallClass int

const (
	// ClassDeadlock: the event queue spun down or circular waiting left no
	// handler activity at all — nothing is being dispatched.
	ClassDeadlock StallClass = iota
	// ClassNackStorm: handlers run, but NACK/retry traffic dominates the
	// dispatch mix — requests bounce without ever being absorbed.
	ClassNackStorm
	// ClassLivelock: events execute without simulated time advancing and
	// without NACK dominance (a scheduling cycle at one instant).
	ClassLivelock
	// ClassStarvation: the machine dispatches useful work and time advances,
	// but some processors are stuck behind it indefinitely.
	ClassStarvation
)

var stallClassNames = [...]string{"deadlock", "nack-storm", "livelock", "starvation"}

func (c StallClass) String() string {
	if int(c) < len(stallClassNames) {
		return stallClassNames[c]
	}
	return fmt.Sprintf("StallClass(%d)", int(c))
}

// StallReport is a snapshot of forward-progress indicators over one
// watchdog window, taken when the watchdog suspects a hang.
type StallReport struct {
	At              sim.Time // simulated time of the snapshot
	TimeAdvanced    sim.Time // simulated time gained during the window
	EventsInWindow  int      // engine events executed during the window
	PendingEvents   int      // events still queued
	PendingOps      int      // transient protocol ops outstanding
	UnfinishedProcs int      // processors that have not completed
	TotalProcs      int

	// Window deltas of the recovery counters.
	DispatchesInWindow uint64 // protocol handlers dispatched
	NacksInWindow      uint64 // NACKs sent
	RetriesInWindow    uint64 // re-issues (NACK back-offs + timeouts)
}

// Classify diagnoses the stall. The decision tree prefers the most specific
// explanation the counters support: no dispatches at all is a deadlock;
// NACKs rivalling dispatches is a NACK storm; same-cycle spinning without
// either is a livelock; anything else starves some processor.
func (r StallReport) Classify() StallClass {
	switch {
	case r.DispatchesInWindow == 0 && r.EventsInWindow == 0:
		return ClassDeadlock
	case r.NacksInWindow > 0 && r.NacksInWindow*2 >= r.DispatchesInWindow:
		return ClassNackStorm
	case r.TimeAdvanced == 0:
		return ClassLivelock
	default:
		return ClassStarvation
	}
}

// String renders the report for stall diagnostics.
func (r StallReport) String() string {
	return fmt.Sprintf(
		"class=%s t=%d advanced=%d events=%d pendingEvents=%d pendingOps=%d procs=%d/%d dispatches=%d nacks=%d retries=%d",
		r.Classify(), int64(r.At), int64(r.TimeAdvanced), r.EventsInWindow,
		r.PendingEvents, r.PendingOps, r.TotalProcs-r.UnfinishedProcs,
		r.TotalProcs, r.DispatchesInWindow, r.NacksInWindow, r.RetriesInWindow)
}

// stallReport builds a StallReport for the window since the given counter
// snapshot.
func (m *Machine) stallReport(last sim.Time, events int, prevDisp, prevNacks, prevRetries uint64) StallReport {
	rep := StallReport{
		At:             m.simNow(),
		TimeAdvanced:   m.simNow() - last,
		EventsInWindow: events,
		PendingEvents:  m.pendingEvents(),
		TotalProcs:     len(m.Procs),
	}
	for _, cc := range m.CCs {
		rep.PendingOps += cc.PendingOps()
	}
	for _, p := range m.Procs {
		if done, _ := p.Finished(); !done {
			rep.UnfinishedProcs++
		}
	}
	disp, nacks, retries := m.progressCounters()
	rep.DispatchesInWindow = disp - prevDisp
	rep.NacksInWindow = nacks - prevNacks
	rep.RetriesInWindow = retries - prevRetries
	return rep
}

// progressCounters sums the forward-progress counters the classifier
// windows over.
func (m *Machine) progressCounters() (dispatches, nacks, retries uint64) {
	for i := range m.run.Controllers {
		c := &m.run.Controllers[i]
		dispatches += c.Dispatches()
		nacks += c.NacksSent
		retries += c.Retries + c.Timeouts
	}
	return
}
