// Package pram implements the paper's Section 3.3 prediction methodology:
// "system designers can obtain the RCCPI measure for important large
// applications using simple simulators (e.g. PRAM) and relate that RCCPI
// to a graph similar to Figure 12 obtained through detailed simulation of
// simpler applications."
//
// The estimator runs the same workload programs as the detailed machine —
// they are written against prog.Env — but with a purely functional model:
// per-processor caches, a node-granular directory, and no timing at all.
// Each shared-memory reference is classified by the coherence actions it
// would trigger, and the resulting message/dispatch count approximates the
// detailed simulator's "requests to coherence controllers". One pass gives
// an RCCPI estimate orders of magnitude faster than detailed simulation.
package pram

import (
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/prog"
)

// lineState is the functional directory entry for one line: which node (if
// any) holds it dirty and which nodes hold clean copies.
type lineState struct {
	dirtyNode int // -1 = none
	sharers   uint64
}

// Sim is the functional estimator.
type Sim struct {
	cfg   *config.Config
	space *memaddr.Space

	procs []*proc
	dir   map[uint64]*lineState

	instructions uint64
	ccRequests   uint64

	// Scheduling.
	parkedBarrier []*proc
	locks         map[int]*lockq
}

type lockq struct {
	held    bool
	waiters []*proc
}

type proc struct {
	id   int
	node int
	l2   *cache.Cache

	co       *prog.Coroutine[op]
	blocked  bool
	finished bool
}

type opKind int

const (
	opRead opKind = iota
	opWrite
	opCompute
	opBarrier
	opLock
	opUnlock
	opDone
)

type op struct {
	kind opKind
	addr uint64
	n    int
}

// New creates an estimator sharing the machine's configuration and address
// space (allocate workload regions against the same space, then Run).
func New(cfg *config.Config, space *memaddr.Space) *Sim {
	s := &Sim{
		cfg:   cfg,
		space: space,
		dir:   make(map[uint64]*lineState),
		locks: make(map[int]*lockq),
	}
	for i := 0; i < cfg.TotalProcs(); i++ {
		s.procs = append(s.procs, &proc{
			id:   i,
			node: i / cfg.ProcsPerNode,
			l2:   cache.New(cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
		})
	}
	return s
}

// Instructions returns the executed instruction count.
func (s *Sim) Instructions() uint64 { return s.instructions }

// CCRequests returns the estimated requests to coherence controllers.
func (s *Sim) CCRequests() uint64 { return s.ccRequests }

// RCCPI returns the estimated requests-to-controllers per instruction.
func (s *Sim) RCCPI() float64 {
	if s.instructions == 0 {
		return 0
	}
	return float64(s.ccRequests) / float64(s.instructions)
}

// Run executes the SPMD program functionally, one operation per processor
// per turn. A program runs ahead of its turns, buffering reads, writes and
// compute steps up to its next Barrier, Lock or Unlock; programs share Go
// memory only across those, so the data-race-free programs' results and
// reference streams are the same as with a switch per operation.
func (s *Sim) Run(program func(prog.Env)) error {
	for _, p := range s.procs {
		e := &env{p: p}
		p.co = prog.Start(func() { program(e) }, op{kind: opDone})
	}
	// Every exit path (completion, deadlock, or a panic) releases the
	// programs, finished or still parked mid-operation.
	defer func() {
		for _, p := range s.procs {
			p.co.Stop()
		}
	}()
	// Round-robin one operation per processor per turn: per-reference
	// interleaving matters, because it produces the line ping-pong that
	// dominates the communication of migratory and falsely-shared data
	// (coarser schedules underestimate Ocean- and Radix-class traffic
	// several-fold).
	for {
		progressed := false
		for _, p := range s.procs {
			if p.finished || p.blocked {
				continue
			}
			progressed = true
			s.step(p)
		}
		if s.allFinished() {
			return nil
		}
		if !progressed {
			return fmt.Errorf("pram: deadlock (%d parked at barrier of %d procs)",
				len(s.parkedBarrier), len(s.procs))
		}
	}
}

func (s *Sim) allFinished() bool {
	for _, p := range s.procs {
		if !p.finished {
			return false
		}
	}
	return true
}

// step executes one operation of p (p must be runnable).
func (s *Sim) step(p *proc) {
	o := p.co.Next()
	switch o.kind {
	case opRead:
		s.instructions++
		s.access(p, o.addr, false)
	case opWrite:
		s.instructions++
		s.access(p, o.addr, true)
	case opCompute:
		s.instructions += uint64(o.n)
	case opBarrier:
		s.parkedBarrier = append(s.parkedBarrier, p)
		p.blocked = true
		if len(s.parkedBarrier) == len(s.procs) {
			for _, q := range s.parkedBarrier {
				q.blocked = false
			}
			s.parkedBarrier = nil
		}
		return
	case opLock:
		s.instructions++
		lq := s.locks[o.n]
		if lq == nil {
			lq = &lockq{}
			s.locks[o.n] = lq
		}
		if lq.held {
			lq.waiters = append(lq.waiters, p)
			p.blocked = true
			return
		}
		lq.held = true
		// A lock acquisition is a read-exclusive of the lock line at
		// minimum: charge a small constant.
		s.ccRequests += 2
	case opUnlock:
		s.instructions++
		lq := s.locks[o.n]
		if lq == nil || !lq.held {
			panic(fmt.Sprintf("pram: unlock of free lock %d", o.n))
		}
		if len(lq.waiters) > 0 {
			next := lq.waiters[0]
			lq.waiters = lq.waiters[1:]
			next.blocked = false
			s.ccRequests += 2
		} else {
			lq.held = false
		}
	case opDone:
		p.finished = true
		return
	}
}

// entry returns the directory record for a line.
func (s *Sim) entry(line uint64) *lineState {
	e := s.dir[line]
	if e == nil {
		e = &lineState{dirtyNode: -1}
		s.dir[line] = e
	}
	return e
}

// siblingHas reports whether another processor on p's node caches the line
// (and whether dirty), enabling in-node cache-to-cache supply.
func (s *Sim) siblingHas(p *proc, line uint64) (present, dirty bool) {
	lo := p.node * s.cfg.ProcsPerNode
	for i := lo; i < lo+s.cfg.ProcsPerNode; i++ {
		if i == p.id {
			continue
		}
		switch _, st := s.procs[i].l2.Lookup(line); st {
		case cache.Shared, cache.Exclusive:
			present = true
		case cache.Modified, cache.Owned:
			return true, true
		case cache.Invalid:
		default:
			panic(fmt.Sprintf("pram: line %#x in unknown cache state %v", line, st))
		}
	}
	return present, false
}

// access classifies one reference and charges the estimated controller
// dispatches it would cause in the detailed model.
func (s *Sim) access(p *proc, addr uint64, write bool) {
	line := s.space.Line(addr)
	if s.space.Home(line) < 0 {
		s.space.HomeOrAssign(line, p.node)
	}
	home := s.space.Home(line)
	local := home == p.node
	w, st := p.l2.Touch(line)
	e := s.entry(line)

	if !write {
		if st != cache.Invalid {
			return // hit
		}
		if present, _ := s.siblingHas(p, line); present {
			s.install(p, line, cache.Shared, e)
			return // in-node cache-to-cache supply, no controller work
		}
		switch {
		case local && e.dirtyNode >= 0 && e.dirtyNode != p.node:
			// Local read, dirty remote: defer + intervention + data home.
			s.ccRequests += 3
		case local:
			// Memory responds under the bus-side directory filter.
		case e.dirtyNode >= 0 && e.dirtyNode != home && e.dirtyNode != p.node:
			// Remote read forwarded to a third-node owner.
			s.ccRequests += 5
		default:
			// Remote read served at the home.
			s.ccRequests += 3
		}
		s.install(p, line, cache.Shared, e)
		e.sharers |= 1 << uint(p.node)
		if e.dirtyNode >= 0 && e.dirtyNode != p.node {
			// The owner's cached copy downgrades to clean Shared as its
			// data is fetched (its next write will be an upgrade again —
			// the read-halo/rewrite cycle that dominates stencil traffic).
			s.downgradeNode(e.dirtyNode, line)
			e.sharers |= 1 << uint(e.dirtyNode)
			e.dirtyNode = -1
		}
		return
	}

	// Write.
	if st == cache.Modified || st == cache.Exclusive {
		if st == cache.Exclusive {
			p.l2.SetState(w, cache.Modified)
		}
		return // silent upgrade
	}
	if _, dirty := s.siblingHas(p, line); dirty {
		// In-node ownership transfer.
		s.invalidateNode(p, line)
		s.install(p, line, cache.Modified, e)
		return
	}
	remoteSharers := s.remoteSharerCount(e, p.node)
	switch {
	case local && e.dirtyNode >= 0 && e.dirtyNode != p.node:
		s.ccRequests += 3
	case local && remoteSharers > 0:
		s.ccRequests += uint64(1 + 2*remoteSharers)
	case local:
		// Bus upgrade/readex satisfied under the directory filter.
	case e.dirtyNode >= 0 && e.dirtyNode != home && e.dirtyNode != p.node:
		s.ccRequests += 5
	case remoteSharers > 0:
		s.ccRequests += uint64(3 + 2*remoteSharers)
	default:
		s.ccRequests += 3
	}
	s.invalidateAll(p, line)
	s.install(p, line, cache.Modified, e)
	e.sharers = 0
	if !local {
		e.dirtyNode = p.node
	} else {
		e.dirtyNode = -1
	}
}

// remoteSharerCount counts nodes other than requester and home that the
// directory lists as sharers.
func (s *Sim) remoteSharerCount(e *lineState, node int) int {
	n := 0
	for b := 0; b < s.cfg.Nodes; b++ {
		if b == node {
			continue
		}
		if e.sharers&(1<<uint(b)) != 0 {
			n++
		}
	}
	return n
}

// downgradeNode moves a node's dirty copies of line to clean Shared (the
// effect of a home-initiated fetch at the owner).
func (s *Sim) downgradeNode(node int, line uint64) {
	lo := node * s.cfg.ProcsPerNode
	for i := lo; i < lo+s.cfg.ProcsPerNode; i++ {
		if w, st := s.procs[i].l2.Lookup(line); st.Dirty() {
			s.procs[i].l2.SetState(w, cache.Shared)
		}
	}
}

// invalidateNode removes the line from p's node's other caches.
func (s *Sim) invalidateNode(p *proc, line uint64) {
	lo := p.node * s.cfg.ProcsPerNode
	for i := lo; i < lo+s.cfg.ProcsPerNode; i++ {
		if i != p.id {
			s.procs[i].l2.Invalidate(line)
		}
	}
}

// invalidateAll removes the line from every other cache in the machine.
func (s *Sim) invalidateAll(p *proc, line uint64) {
	for _, q := range s.procs {
		if q.id != p.id {
			q.l2.Invalidate(line)
		}
	}
}

// install fills a line, charging an estimated write-back for dirty
// victims homed remotely.
func (s *Sim) install(p *proc, line uint64, st cache.State, e *lineState) {
	_, victim, vstate, _ := p.l2.Insert(line, st)
	if vstate.Dirty() {
		if s.space.Home(victim) != p.node {
			s.ccRequests++ // write-back dispatch at the home
		}
		ve := s.entry(victim)
		if ve.dirtyNode == p.node {
			if present, dirty := s.siblingHas(p, victim); !present || !dirty {
				ve.dirtyNode = -1
			}
		}
	}
}

// env adapts a pram proc to prog.Env.
type env struct {
	p *proc
}

func (e *env) ID() int   { return e.p.id }
func (e *env) Node() int { return e.p.node }

// Read, Write and Compute only fill the run-ahead buffer; Barrier, Lock
// and Unlock park the program until the estimator takes them.
func (e *env) Read(addr uint64)  { e.p.co.Put(op{kind: opRead, addr: addr}) }
func (e *env) Write(addr uint64) { e.p.co.Put(op{kind: opWrite, addr: addr}) }
func (e *env) Compute(n int) {
	if n > 0 {
		e.p.co.Put(op{kind: opCompute, n: n})
	}
}
func (e *env) ReadRange(addr uint64, n int) {
	for i := 0; i < n; i++ {
		e.Read(addr + uint64(i*8))
	}
}
func (e *env) WriteRange(addr uint64, n int) {
	for i := 0; i < n; i++ {
		e.Write(addr + uint64(i*8))
	}
}
func (e *env) Barrier()      { e.p.co.Yield(op{kind: opBarrier}) }
func (e *env) Lock(id int)   { e.p.co.Yield(op{kind: opLock, n: id}) }
func (e *env) Unlock(id int) { e.p.co.Yield(op{kind: opUnlock, n: id}) }

var _ prog.Env = (*env)(nil)
