// Package machine assembles the full CC-NUMA system of the paper's base
// configuration: N SMP nodes (bus + interleaved memory + caches + coherence
// controller + directory) connected by the point-to-point network, plus the
// synchronization layer (barriers and queued test-and-set locks) the
// SPLASH-2 kernels need. It owns the simulation run loop and collects the
// statistics of Tables 6 and 7.
package machine

import (
	"fmt"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/core"
	"ccnuma/internal/cpu"
	"ccnuma/internal/directory"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/prog"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
)

// Machine is one fully wired CC-NUMA system.
type Machine struct {
	// Eng is the serial event engine, or shard 0's engine when the
	// simulation is sharded (Cfg.SimShards > 1). Code that needs the
	// engine owning a particular node must use engFor.
	Eng   *sim.Engine
	Cfg   config.Config
	Space *memaddr.Space

	// engs[n] is the engine that owns node n's components; every entry
	// aliases Eng when the run is serial. cluster is nil when serial.
	engs    []*sim.Engine
	cluster *sim.Cluster
	Net     *interconnect.Network
	Buses   []*smpbus.Bus
	Dirs    []*directory.Directory
	CCs     []*core.Controller
	Procs   []*cpu.Proc

	// Tracer is the observation handle every component records into: the
	// caller's event tracer, with span tiling on when Cfg.Attribution is
	// set. Nil when tracing and attribution are both off.
	Tracer *obs.Tracer

	run     *stats.Run
	sampler *obs.Sampler

	// Barrier state (single global sense-counting barrier). arriveFns[i]
	// is barrierArrive for processor i, bound once.
	barrierParked []*cpu.Proc
	arriveFns     []func()

	// Lock state.
	locks     map[int]*lockState
	lockAddrs map[int]uint64
	lockPage  uint64
	lockNext  int
}

type lockState struct {
	held    bool
	waiters []*cpu.Proc
}

// New builds a machine for cfg with tracing disabled. The app name labels
// the statistics run.
func New(cfg config.Config, app string) (*Machine, error) {
	return NewTraced(cfg, app, nil)
}

// NewTraced builds a machine whose components record typed events into tr
// (nil disables tracing at zero cost). With cfg.Attribution set, the
// machine turns span tiling on in tr, building a tracer that records no
// events when tr is nil.
func NewTraced(cfg config.Config, app string, tr *obs.Tracer) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cluster *sim.Cluster
	if cfg.SimShards > 1 {
		if tr.Enabled() {
			return nil, fmt.Errorf("machine: tracing requires SimShards <= 1: the trace ring is one globally ordered log")
		}
		// Conservative lookahead: the smallest delay any cross-node effect
		// pays. Messages pay NetLatency on the wire, barrier releases pay
		// BarrierCost, and lock handoffs pay LockRetry, so no shard can be
		// affected by another within a window shorter than their minimum.
		look := cfg.NetLatency
		if cfg.BarrierCost < look {
			look = cfg.BarrierCost
		}
		if cfg.LockRetry < look {
			look = cfg.LockRetry
		}
		if look <= 0 {
			return nil, fmt.Errorf("machine: SimShards=%d needs positive NetLatency, BarrierCost, and LockRetry for conservative lookahead (got %d, %d, %d)",
				cfg.SimShards, cfg.NetLatency, cfg.BarrierCost, cfg.LockRetry)
		}
		cluster = sim.NewCluster(cfg.SimShards, look)
	}
	engs := make([]*sim.Engine, cfg.Nodes)
	for n := range engs {
		switch {
		case cluster != nil:
			engs[n] = cluster.Shard(n * cfg.SimShards / cfg.Nodes)
		case n == 0:
			engs[n] = sim.NewEngine()
		default:
			engs[n] = engs[0]
		}
	}
	if cluster != nil {
		for i := 0; i < cfg.SimShards; i++ {
			cluster.Shard(i).Limit = cfg.SimLimit
		}
	} else {
		engs[0].Limit = cfg.SimLimit
	}
	if cfg.Attribution {
		if tr == nil {
			tr = new(obs.Tracer) // records no events: span tiling only
		}
		tr.EnableAttribution()
	}
	eng := engs[0]
	m := &Machine{
		Eng:       eng,
		engs:      engs,
		cluster:   cluster,
		Cfg:       cfg,
		Tracer:    tr,
		Buses:     make([]*smpbus.Bus, 0, cfg.Nodes),
		Dirs:      make([]*directory.Directory, 0, cfg.Nodes),
		CCs:       make([]*core.Controller, 0, cfg.Nodes),
		Procs:     make([]*cpu.Proc, 0, cfg.Nodes*cfg.ProcsPerNode),
		arriveFns: make([]func(), 0, cfg.Nodes*cfg.ProcsPerNode),
		locks:     make(map[int]*lockState),
		lockAddrs: make(map[int]uint64),
		run:       stats.NewRun(cfg.ArchName(), app, cfg.EngineCounts()),
	}
	m.Space = memaddr.NewSpace(&m.Cfg)
	m.Net = interconnect.New(engs, &m.Cfg, tr)
	// Messages cross nodes, so the controllers on one engine share a pool.
	msgs := make(map[*sim.Engine]*core.MsgPool)
	for n := 0; n < cfg.Nodes; n++ {
		bus := smpbus.New(engs[n], &m.Cfg, n, tr)
		dir := directory.New(engs[n], &m.Cfg, n, tr)
		if msgs[engs[n]] == nil {
			msgs[engs[n]] = new(core.MsgPool)
		}
		cc := core.New(engs[n], &m.Cfg, n, bus, m.Net, msgs[engs[n]], dir, m.Space, &m.run.Controllers[n], tr)
		m.Buses = append(m.Buses, bus)
		m.Dirs = append(m.Dirs, dir)
		m.CCs = append(m.CCs, cc)
		for i := 0; i < cfg.ProcsPerNode; i++ {
			id := n*cfg.ProcsPerNode + i
			p := cpu.New(engs[n], &m.Cfg, id, n, bus, m.Space, m, tr)
			m.Procs = append(m.Procs, p)
			m.arriveFns = append(m.arriveFns, func() { m.barrierArrive(p) })
		}
	}
	return m, nil
}

// engFor returns the engine that owns node n's components (Eng when serial).
func (m *Machine) engFor(node int) *sim.Engine { return m.engs[node] }

// fence runs fn in a globally serialized context. Shared machine state —
// the barrier list, the lock tables, the page-placement map — may only be
// touched under a fence; when serial, fn runs inline at zero cost.
func (m *Machine) fence(p *cpu.Proc, fn func()) { m.engFor(p.Node()).Fence(fn) }

// Executed returns the events executed so far, summed across shards.
func (m *Machine) Executed() uint64 {
	if m.cluster != nil {
		return m.cluster.Executed()
	}
	return m.Eng.Executed()
}

// Cluster returns the shard cluster, or nil when the run is serial.
func (m *Machine) Cluster() *sim.Cluster { return m.cluster }

func (m *Machine) simNow() sim.Time {
	if m.cluster != nil {
		return m.cluster.Now()
	}
	return m.Eng.Now()
}

func (m *Machine) pendingEvents() int {
	if m.cluster != nil {
		return m.cluster.Pending()
	}
	return m.Eng.Pending()
}

// AttachSampler registers a time-series sampler; the machine probes engine
// utilization, queue depths, bus/bank/directory occupancy, and NI backlog
// every sampler interval of simulated time during Run.
func (m *Machine) AttachSampler(s *obs.Sampler) { m.sampler = s }

// NProcs returns the machine's processor count.
func (m *Machine) NProcs() int { return len(m.Procs) }

// CheckDrained reports protocol operations or network frames left
// outstanding after the event queue emptied: a lost message or a protocol
// deadlock that no processor-side check would see.
func (m *Machine) CheckDrained() error {
	for n, cc := range m.CCs {
		if pend := cc.PendingOps(); pend != 0 {
			return fmt.Errorf("machine: controller %d left %d transient ops", n, pend)
		}
	}
	if n := m.Net.InFlight(); n != 0 {
		return fmt.Errorf("machine: network did not drain: %d frames still in flight", n)
	}
	for n := 0; n < m.Cfg.Nodes; n++ {
		if q := m.Net.OutQueued(n); q != 0 {
			return fmt.Errorf("machine: network did not drain: node %d NI still queues %d frames", n, q)
		}
	}
	return nil
}

// Run executes program on every processor (SPMD) and returns the collected
// statistics. The run fails if the simulation exceeds the configured time
// limit, deadlocks with unfinished processors, leaves protocol operations
// or network frames outstanding, or breaks a coherence invariant.
func (m *Machine) Run(program func(*prog.Env)) (*stats.Run, error) {
	// Every exit path (success, deadlock, time limit, watchdog, or a panic
	// out of the model or a program) releases the programs still parked
	// mid-operation, so an abandoned run does not pin the machine in memory.
	defer func() {
		for _, p := range m.Procs {
			p.Stop()
		}
	}()
	for _, p := range m.Procs {
		p.Run(program)
	}
	if m.sampler != nil {
		if m.cluster != nil {
			return nil, fmt.Errorf("machine: the sampler probes every node from one periodic event and requires SimShards <= 1")
		}
		m.startSampler()
	}
	if err := m.runEngine(); err != nil {
		return nil, err
	}
	var execTime sim.Time
	for _, p := range m.Procs {
		done, at := p.Finished()
		if !done {
			return nil, fmt.Errorf("machine: processor %d never finished (deadlock: %d events executed, %d parked at barrier)\n%s",
				p.ID(), m.Executed(), len(m.barrierParked), m.Snapshot())
		}
		if at > execTime {
			execTime = at
		}
	}
	if err := m.CheckDrained(); err != nil {
		return nil, err
	}
	if err := m.CheckCoherence(); err != nil {
		return nil, err
	}
	m.collect(execTime)
	// Every attributed run self-checks the span conservation invariant:
	// the completed transactions' stage segments partition the processors'
	// recorded miss latency exactly, and no transaction leaks open.
	if err := m.Tracer.CheckConservation(&m.run.MissLatency); err != nil {
		return nil, err
	}
	return m.run, nil
}

// watchdogChunk bounds how many events may execute at a single simulated
// cycle before the stall watchdog declares livelock. Real same-cycle bursts
// are a few events per component; millions means time has stopped advancing.
const watchdogChunk = 2_000_000

// runEngine drives the event loop, serial or sharded, watching for loss of
// forward progress: every watchdogChunk events (with the cluster quiescent
// when sharded) a check aborts the run with a classified stall report and a
// state snapshot if the clock has not moved, or if no useful protocol work
// (dispatches) happened behind heavy NACK/retry traffic, instead of
// spinning forever.
func (m *Machine) runEngine() error {
	prevDisp, prevNacks, prevRetries := m.progressCounters()
	last := m.simNow()
	var stalled error
	check := func(uint64) error {
		rep := m.stallReport(last, watchdogChunk, prevDisp, prevNacks, prevRetries)
		now := m.simNow()
		if now == last {
			stalled = fmt.Errorf("machine: watchdog: simulated time stalled at t=%d (%d events without progress)\n%s\n%s",
				now, watchdogChunk, rep, m.Snapshot())
			return stalled
		}
		// Time advances but a whole chunk dispatched nothing while NACK or
		// retry traffic flowed: the protocol is churning without absorbing
		// work (NACK storm / livelock with a moving clock).
		if rep.DispatchesInWindow == 0 && rep.NacksInWindow+rep.RetriesInWindow > 0 {
			stalled = fmt.Errorf("machine: watchdog: no useful work for %d events at t=%d\n%s\n%s",
				watchdogChunk, now, rep, m.Snapshot())
			return stalled
		}
		prevDisp, prevNacks, prevRetries = m.progressCounters()
		last = now
		return nil
	}
	var err error
	if m.cluster != nil {
		_, err = m.cluster.Run(watchdogChunk, check)
	} else {
		_, err = m.Eng.RunChecked(watchdogChunk, check)
	}
	if err == nil || stalled != nil {
		return err
	}
	// The engine's own error is its time limit, reported only after every
	// event at or below it ran; re-render it in the machine's format.
	return fmt.Errorf("machine: time limit %d exceeded at t=%d with %d events pending\n%s",
		m.Eng.Limit, m.simNow(), m.pendingEvents(), m.Snapshot())
}

// Snapshot renders the machine's live state for stall and deadlock reports:
// engine occupancy and queue depths, outstanding transient protocol state,
// and network-interface port backlogs.
func (m *Machine) Snapshot() string {
	var b strings.Builder
	now := m.simNow()
	fmt.Fprintf(&b, "t=%d executed=%d pending=%d\n", now, m.Executed(), m.pendingEvents())
	for n, cc := range m.CCs {
		b.WriteString(cc.DumpPending())
		out := m.Net.OutPort(n).FreeAt() - now
		in := m.Net.InPort(n).FreeAt() - now
		if out < 0 {
			out = 0
		}
		if in < 0 {
			in = 0
		}
		if out > 0 || in > 0 {
			fmt.Fprintf(&b, "node %d ni-out backlog=%d ni-in backlog=%d\n", n, out, in)
		}
	}
	return b.String()
}

// startSampler schedules the periodic probe that feeds the attached
// sampler. The probe re-arms itself only while other events are pending, so
// it never keeps a finished simulation alive.
func (m *Machine) startSampler() {
	s := m.sampler
	nodes := m.Cfg.Nodes
	prevEng := make([][]sim.Time, nodes)
	for n := range prevEng {
		prevEng[n] = make([]sim.Time, m.Cfg.NodeEngineCount(n))
	}
	prevAddr := make([]sim.Time, nodes)
	prevData := make([]sim.Time, nodes)
	prevBank := make([]sim.Time, nodes)
	prevDir := make([]sim.Time, nodes)
	prevNacks := make([]uint64, nodes)
	prevRetries := make([]uint64, nodes)
	var prevOverflows uint64
	queueCap := 0 // unbounded without the recovery layer
	if m.Cfg.Robust {
		queueCap = config.RobustQueueDepth
	}
	var tick sim.Func
	tick = func() {
		now := m.Eng.Now()
		overflows := m.Net.Link().Overflows
		ovDelta := overflows - prevOverflows
		prevOverflows = overflows
		for n := 0; n < nodes; n++ {
			bus := m.Buses[n]
			addr := bus.AddrResource().Busy()
			data := bus.DataResource().Busy()
			bank := bus.BanksBusy()
			dram := m.Dirs[n].DRAM().Busy()
			outBacklog := int64(m.Net.OutPort(n).FreeAt() - now)
			inBacklog := int64(m.Net.InPort(n).FreeAt() - now)
			if outBacklog < 0 {
				outBacklog = 0
			}
			if inBacklog < 0 {
				inBacklog = 0
			}
			nacks := m.run.Controllers[n].NacksSent
			retries := m.run.Controllers[n].Retries + m.run.Controllers[n].Timeouts
			nackDelta := nacks - prevNacks[n]
			retryDelta := retries - prevRetries[n]
			prevNacks[n], prevRetries[n] = nacks, retries
			for i := range prevEng[n] {
				busy := m.run.Controllers[n].Engines[i].Busy
				resp, req, busQ := m.CCs[n].QueueDepths(i)
				s.Add(obs.Sample{
					At:             int64(now),
					Node:           n,
					Engine:         i,
					EngineUtilPct:  s.UtilPct(busy - prevEng[n][i]),
					EngineBusy:     m.CCs[n].EngineBusy(i),
					RespQ:          resp,
					ReqQ:           req,
					BusQ:           busQ,
					BusAddrUtilPct: s.UtilPct(addr - prevAddr[n]),
					BusDataUtilPct: s.UtilPct(data - prevData[n]),
					BankUtilPct:    s.UtilPct((bank - prevBank[n]) / sim.Time(bus.NumBanks())),
					DirDRAMUtilPct: s.UtilPct(dram - prevDir[n]),
					NIOutBacklog:   outBacklog,
					NIInBacklog:    inBacklog,
					QueueCap:       queueCap,
					NIOutQueued:    m.Net.OutQueued(n),
					Nacks:          nackDelta,
					Retries:        retryDelta,
					Overflows:      ovDelta,
				})
				prevEng[n][i] = busy
			}
			prevAddr[n], prevData[n], prevBank[n], prevDir[n] = addr, data, bank, dram
		}
		if m.Eng.Pending() > 0 {
			m.Eng.After(s.Interval, tick)
		}
	}
	m.Eng.After(s.Interval, tick)
}

func (m *Machine) collect(execTime sim.Time) {
	r := m.run
	r.Counters = make(map[string]uint64, runCounters)
	r.ExecTime = execTime
	r.Attribution = m.Tracer.Attribution()
	for _, p := range m.Procs {
		r.Instructions += p.Instructions()
		r.MissLatency.Merge(p.MissLatencies())
		p.AddCounters(r.Counters)
	}
	r.Add("netMessages", m.Net.Messages())
	r.Add("netFlits", m.Net.Flits())
	for _, b := range m.Buses {
		for k, name := range busCounterNames {
			if c := b.Count(smpbus.Kind(k)); c > 0 {
				r.Add(name, c)
			}
		}
	}
	for _, d := range m.Dirs {
		r.Add("dirCacheHits", d.CacheHits())
		r.Add("dirCacheMisses", d.CacheMisses())
	}
	// Recovery and fault counters, added only when non-zero so fault-free
	// reports are byte-identical to pre-robustness output.
	ns, nr, rt, to, ba, sd := r.RecoveryTotals()
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"nacksSent", ns}, {"nacksRecv", nr}, {"retries", rt},
		{"timeouts", to}, {"busAborts", ba}, {"strayDrops", sd},
	} {
		if c.v > 0 {
			r.Add(c.name, c.v)
		}
	}
	link := m.Net.Link()
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"linkDrops", link.Drops}, {"linkDuplicates", link.Duplicates},
		{"linkCorrupts", link.Corrupts}, {"linkDelays", link.DelaysInjected},
		{"linkRetransmits", link.Retransmits}, {"linkDiscards", link.Discards},
		{"niOverflows", link.Overflows}, {"niBrownouts", link.Brownouts},
	} {
		if c.v > 0 {
			r.Add(c.name, c.v)
		}
	}
	var busStalls uint64
	for _, b := range m.Buses {
		busStalls += b.Stalls()
	}
	if busStalls > 0 {
		r.Add("busStalls", busStalls)
	}
	for h := protocol.Handler(0); h < protocol.Handler(protocol.NumHandlers); h++ {
		var c, busy uint64
		for _, cc := range m.CCs {
			c += cc.HandlerCount(h)
			busy += uint64(cc.HandlerBusy(h))
		}
		if c > 0 {
			r.Add(handlerCounterNames[h].count, c)
			r.Add(handlerCounterNames[h].busy, busy)
		}
	}
}

// runCounters bounds the number of counters collect writes, so the run's
// counter map is made with room for all of them: the processors' seven
// reference counters, the network's two, one per bus kind, the directory
// cache's two, six recovery and eight link counters, the bus stalls, and
// a dispatch count and busy time per handler.
const runCounters = 7 + 2 + len(busCounterNames) + 2 + 6 + 8 + 1 + 2*protocol.NumHandlers

// busCounterNames and handlerCounterNames are the names collect gives the
// per-kind bus counts and the per-handler dispatch counts and busy times,
// built once rather than on every run.
var (
	busCounterNames = func() (names [8]string) {
		for k := range names {
			names[k] = "bus" + smpbus.Kind(k).String()
		}
		return names
	}()
	handlerCounterNames = func() (names [protocol.NumHandlers]struct{ count, busy string }) {
		for h := range names {
			names[h].count = "handler:" + protocol.Handler(h).String()
			names[h].busy = "handlerBusy:" + protocol.Handler(h).String()
		}
		return names
	}()
)

// ---- synchronization (cpu.SyncHandler) --------------------------------------

// Barrier parks the processor; when the last one arrives, all resume after
// the configured barrier cost. Barriers are simulated at a fixed cost
// rather than as coherence spin loops (see DESIGN.md substitutions). The
// arrival list is shared machine state, so the whole operation runs under a
// fence; releases pay BarrierCost, which is at least the cluster lookahead,
// so the cross-engine resumes are legal from the fence body.
func (m *Machine) Barrier(p *cpu.Proc) { m.fence(p, m.arriveFns[p.ID()]) }

// barrierArrive parks p; the last arrival resumes every parked processor
// on its own engine and empties the list, keeping its array.
func (m *Machine) barrierArrive(p *cpu.Proc) {
	m.barrierParked = append(m.barrierParked, p)
	if len(m.barrierParked) < len(m.Procs) {
		return
	}
	at := m.engFor(p.Node()).Now() + m.Cfg.BarrierCost
	for _, q := range m.barrierParked {
		q.ResumeAt(at)
	}
	clear(m.barrierParked)
	m.barrierParked = m.barrierParked[:0]
}

// lockAddrFor lazily assigns each lock a cache line (packed 32 per page so
// lock homes spread round-robin like ordinary data).
func (m *Machine) lockAddrFor(id int) uint64 {
	if a, ok := m.lockAddrs[id]; ok {
		return a
	}
	perPage := m.Cfg.PageSize / m.Cfg.LineSize
	if m.lockNext%perPage == 0 {
		m.lockPage = m.Space.Alloc(m.Cfg.PageSize)
	}
	a := m.lockPage + uint64((m.lockNext%perPage)*m.Cfg.LineSize)
	m.lockNext++
	m.lockAddrs[id] = a
	return a
}

// Lock models a queued test-and-set lock: the acquire is a read-exclusive
// of the lock's cache line; contended acquirers park until the release and
// then retry the line acquisition after a back-off.
func (m *Machine) Lock(p *cpu.Proc, id int) {
	// Outer fence: the lock table and lock-line placement are shared
	// machine state. Inner fence: the completion callback mutates the lock
	// state again, from an event on p's engine. Both run inline when serial.
	m.fence(p, func() {
		ls := m.locks[id]
		if ls == nil {
			ls = &lockState{}
			m.locks[id] = ls
		}
		addr := m.lockAddrFor(id)
		p.SyncAccess(addr, true, sim.Func(func() {
			m.fence(p, func() {
				if !ls.held {
					ls.held = true
					p.Resume()
					return
				}
				ls.waiters = append(ls.waiters, p)
			})
		}))
	})
}

// Unlock releases the lock with a store to its line and hands it to the
// next waiter, whose retry pays another line acquisition.
func (m *Machine) Unlock(p *cpu.Proc, id int) {
	m.fence(p, func() {
		ls := m.locks[id]
		if ls == nil || !ls.held {
			panic(fmt.Sprintf("machine: unlock of free lock %d", id))
		}
		addr := m.lockAddrFor(id)
		p.SyncAccess(addr, true, sim.Func(func() {
			m.fence(p, func() {
				if len(ls.waiters) == 0 {
					ls.held = false
				} else {
					next := ls.waiters[0]
					ls.waiters = ls.waiters[1:]
					at := m.engFor(p.Node()).Now()
					// The handoff pays LockRetry >= lookahead, so the retry
					// may land cross-engine; its completion callback
					// (next.Resume) touches no shared state and needs no
					// fence.
					m.engFor(next.Node()).At(at+m.Cfg.LockRetry, sim.Func(func() {
						next.SyncAccess(addr, true, sim.Func(next.Resume))
					}))
				}
				p.Resume()
			})
		}))
	})
}
