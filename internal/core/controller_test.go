package core

import (
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/directory"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/obs"
	"ccnuma/internal/protocol"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
	"ccnuma/internal/stats"
)

// rig wires two controllers with buses, directories, and a network, but no
// processors: tests drive the bus and network interfaces directly.
type rig struct {
	eng   *sim.Engine
	cfg   config.Config
	space *memaddr.Space
	net   *interconnect.Network
	buses []*smpbus.Bus
	ccs   []*Controller
	runs  *stats.Run
}

func newRig(t *testing.T, mutate func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes = 2
	cfg.ProcsPerNode = 1
	cfg.SimLimit = 10_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: sim.NewEngine(), cfg: cfg}
	r.space = memaddr.NewSpace(&r.cfg)
	engs := make([]*sim.Engine, cfg.Nodes)
	for i := range engs {
		engs[i] = r.eng
	}
	r.net = interconnect.New(engs, &r.cfg, nil)
	r.runs = stats.NewRun(cfg.ArchName(), "rig", cfg.EngineCounts())
	msgs := new(MsgPool)
	for n := 0; n < cfg.Nodes; n++ {
		bus := smpbus.New(r.eng, &r.cfg, n, nil)
		dir := directory.New(r.eng, &r.cfg, n, nil)
		cc := New(r.eng, &r.cfg, n, bus, r.net, msgs, dir, r.space, &r.runs.Controllers[n], nil)
		r.buses = append(r.buses, bus)
		r.ccs = append(r.ccs, cc)
	}
	return r
}

// silentSnooper holds no lines.
type silentSnooper struct{}

func (silentSnooper) Snoop(*smpbus.Txn) smpbus.SnoopResult { return smpbus.SnoopNone }

// ownerSnooper answers every controller fetch as a cache holding the line
// dirty would, supplying the line's address as the line's value.
type ownerSnooper struct{ line uint64 }

func (s *ownerSnooper) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.Kind == smpbus.Fetch || txn.Kind == smpbus.FetchEx {
		s.line = txn.Line
		return smpbus.SnoopOwned
	}
	return smpbus.SnoopNone
}

func (s *ownerSnooper) SnoopData() uint64 { return s.line }

func TestSnoopClassification(t *testing.T) {
	r := newRig(t, nil)
	localLine := r.space.AllocOnNode(4096, 0)
	remoteLine := r.space.AllocOnNode(4096, 1)
	cc := r.ccs[0]

	// Remote lines always defer (if no sibling supplied them, the request
	// must go to the home).
	for _, k := range []smpbus.Kind{smpbus.Read, smpbus.ReadEx, smpbus.Upgrade} {
		txn := &smpbus.Txn{Kind: k, Line: remoteLine, HomeLocal: false}
		if got := cc.Snoop(txn); got != smpbus.SnoopDefer {
			t.Errorf("remote %v snoop = %v, want defer", k, got)
		}
	}
	// Write-backs never defer (direct data path handles them).
	wb := &smpbus.Txn{Kind: smpbus.WriteBack, Line: remoteLine, HomeLocal: false}
	if got := cc.Snoop(wb); got != smpbus.SnoopNone {
		t.Errorf("writeback snoop = %v, want none", got)
	}
	// Local lines with no remote state pass.
	rd := &smpbus.Txn{Kind: smpbus.Read, Line: localLine, HomeLocal: true}
	if got := cc.Snoop(rd); got != smpbus.SnoopNone {
		t.Errorf("clean local read snoop = %v, want none", got)
	}
	// DirtyRemote defers reads; SharedRemote defers only exclusives.
	cc.dir.Write(0, localLine, directory.Entry{State: directory.DirtyRemote, Owner: 1})
	if got := cc.Snoop(rd); got != smpbus.SnoopDefer {
		t.Errorf("dirty-remote local read snoop = %v, want defer", got)
	}
	cc.dir.Write(0, localLine, directory.Entry{State: directory.SharedRemote,
		Sharers: directory.Bitmap(0).Set(1)})
	if got := cc.Snoop(rd); got != smpbus.SnoopShared {
		t.Errorf("shared-remote local read snoop = %v, want shared (memory responds, line installs Shared)", got)
	}
	rx := &smpbus.Txn{Kind: smpbus.ReadEx, Line: localLine, HomeLocal: true}
	if got := cc.Snoop(rx); got != smpbus.SnoopDefer {
		t.Errorf("shared-remote local readex snoop = %v, want defer", got)
	}
}

func TestRemoteMissRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	line := r.space.AllocOnNode(4096, 0) // homed on node 0
	r.buses[1].AttachSnooper(silentSnooper{})
	r.buses[0].AttachSnooper(silentSnooper{})

	var out *smpbus.Outcome
	r.eng.At(0, sim.Func(func() {
		r.buses[1].Issue(&smpbus.Txn{
			Kind: smpbus.Read, Line: line, Src: 0, HomeLocal: false,
			Done: func(o smpbus.Outcome) { c := o; out = &c },
		})
	}))
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Status != smpbus.OK || !out.Shared {
		t.Fatalf("outcome %+v, want OK shared", out)
	}
	// Directory at home records node 1 as a sharer.
	e := r.ccs[0].dir.Lookup(line)
	if e.State != directory.SharedRemote || !e.Sharers.Has(1) {
		t.Fatalf("home directory %+v, want SharedRemote{1}", e)
	}
	if r.ccs[0].PendingOps() != 0 || r.ccs[1].PendingOps() != 0 {
		t.Fatal("transient state left behind")
	}
	// Handler accounting on both sides.
	if r.ccs[1].HandlerCount(protocol.HBusReadRemote) != 1 ||
		r.ccs[0].HandlerCount(protocol.HRemoteReadHomeClean) != 1 ||
		r.ccs[1].HandlerCount(protocol.HDataRespRead) != 1 {
		t.Fatal("handler counts wrong")
	}
	// Statistics recorded arrivals on both controllers.
	if r.runs.TotalArrivals() < 3 {
		t.Fatalf("arrivals = %d", r.runs.TotalArrivals())
	}
}

// TestForceNackOnlyOnRobust pins that the forced-NACK seam bounces a
// request only on a Robust machine: without the recovery layer the home
// serves the request as if the seam were not armed.
func TestForceNackOnlyOnRobust(t *testing.T) {
	for _, robust := range []bool{false, true} {
		r := newRig(t, func(c *config.Config) { c.Robust = robust })
		line := r.space.AllocOnNode(4096, 0) // homed on node 0
		r.buses[1].AttachSnooper(silentSnooper{})
		r.buses[0].AttachSnooper(silentSnooper{})
		r.ccs[0].ForceNackNext(1)
		var out *smpbus.Outcome
		r.eng.At(0, sim.Func(func() {
			r.buses[1].Issue(&smpbus.Txn{
				Kind: smpbus.Read, Line: line, Src: 0, HomeLocal: false,
				Done: func(o smpbus.Outcome) { c := o; out = &c },
			})
		}))
		if _, err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
		if out == nil || out.Status != smpbus.OK {
			t.Fatalf("robust=%v: outcome %+v, want OK", robust, out)
		}
		want := uint64(0)
		if robust {
			want = 1
		}
		home, req := &r.runs.Controllers[0], &r.runs.Controllers[1]
		if home.NacksSent != want || req.NacksRecv != want || req.Retries != want {
			t.Errorf("robust=%v: nacksSent=%d nacksRecv=%d retries=%d, want %d each",
				robust, home.NacksSent, req.NacksRecv, req.Retries, want)
		}
	}
}

func TestRemoteReadExSetsDirty(t *testing.T) {
	r := newRig(t, nil)
	line := r.space.AllocOnNode(4096, 0)
	r.buses[0].AttachSnooper(silentSnooper{})
	r.buses[1].AttachSnooper(silentSnooper{})
	done := false
	r.eng.At(0, sim.Func(func() {
		r.buses[1].Issue(&smpbus.Txn{
			Kind: smpbus.ReadEx, Line: line, Src: 0, HomeLocal: false,
			Done: func(o smpbus.Outcome) {
				done = true
				if o.Status != smpbus.OK || o.Shared {
					t.Errorf("outcome %+v", o)
				}
			},
		})
	}))
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("readex never completed")
	}
	e := r.ccs[0].dir.Lookup(line)
	if e.State != directory.DirtyRemote || e.Owner != 1 {
		t.Fatalf("home directory %+v, want DirtyRemote{1}", e)
	}
}

func TestWriteBackClearsDirectory(t *testing.T) {
	r := newRig(t, nil)
	line := r.space.AllocOnNode(4096, 0)
	r.ccs[0].dir.Write(0, line, directory.Entry{State: directory.DirtyRemote, Owner: 1})
	r.eng.At(0, sim.Func(func() { r.ccs[1].CaptureWriteBack(line, false, 0) }))
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if e := r.ccs[0].dir.Lookup(line); e.State != directory.NoRemote {
		t.Fatalf("directory %+v after writeback, want NoRemote", e)
	}
	if r.ccs[0].HandlerCount(protocol.HWriteBackAtHome) != 1 {
		t.Fatal("writeback handler not dispatched")
	}
}

func TestWriteBackSharedLeftKeepsSharer(t *testing.T) {
	r := newRig(t, nil)
	line := r.space.AllocOnNode(4096, 0)
	r.ccs[0].dir.Write(0, line, directory.Entry{State: directory.DirtyRemote, Owner: 1})
	r.eng.At(0, sim.Func(func() { r.ccs[1].CaptureWriteBack(line, true, 0) }))
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	e := r.ccs[0].dir.Lookup(line)
	if e.State != directory.SharedRemote || !e.Sharers.Has(1) {
		t.Fatalf("directory %+v, want SharedRemote{1}", e)
	}
}

func TestArbitrationPrefersResponses(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	e := cc.engines[0]
	// Hand-enqueue: one bus request, one net request, one response.
	line := r.space.AllocOnNode(4096, 1)
	respMsg := &protocol.Msg{Type: protocol.MsgInvalAck, Line: line}
	reqMsg := &protocol.Msg{Type: protocol.MsgInval, Line: line}
	e.q[obs.QResp] = append(e.q[obs.QResp], &work{msg: respMsg})
	e.q[obs.QReq] = append(e.q[obs.QReq], &work{msg: reqMsg})
	e.q[obs.QBus] = append(e.q[obs.QBus], &work{txn: &smpbus.Txn{Kind: smpbus.Read, Line: line}})

	if w := e.pick(); w.msg != respMsg {
		t.Fatal("responses must dispatch first")
	}
	if w := e.pick(); w.msg != reqMsg {
		t.Fatal("network requests dispatch before bus requests")
	}
	if w := e.pick(); w.txn == nil {
		t.Fatal("bus request should be last")
	}
	if e.pick() != nil {
		t.Fatal("queues should be empty")
	}
}

func TestArbitrationLivelockException(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.LivelockLimit = 2 })
	e := r.ccs[0].engines[0]
	line := r.space.AllocOnNode(4096, 1)
	busWork := &work{txn: &smpbus.Txn{Kind: smpbus.Read, Line: line}}
	e.q[obs.QBus] = append(e.q[obs.QBus], busWork)
	for i := 0; i < 5; i++ {
		e.q[obs.QReq] = append(e.q[obs.QReq], &work{msg: &protocol.Msg{Type: protocol.MsgInval, Line: line}})
	}
	// Two network requests dispatch; the third pick must serve the bus.
	if w := e.pick(); w.msg == nil {
		t.Fatal("pick 1 should be a network request")
	}
	if w := e.pick(); w.msg == nil {
		t.Fatal("pick 2 should be a network request")
	}
	if w := e.pick(); w != busWork {
		t.Fatal("anti-livelock exception should serve the waiting bus request")
	}
	if e.netStreak != 0 {
		t.Fatal("streak should reset after serving the bus")
	}
}

func TestArbitrationFIFO(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Arbitration = config.ArbFIFO })
	e := r.ccs[0].engines[0]
	line := r.space.AllocOnNode(4096, 1)
	first := &work{arrival: 5, txn: &smpbus.Txn{Kind: smpbus.Read, Line: line}}
	second := &work{arrival: 10, msg: &protocol.Msg{Type: protocol.MsgInvalAck, Line: line}}
	e.q[obs.QBus] = append(e.q[obs.QBus], first)
	e.q[obs.QResp] = append(e.q[obs.QResp], second)
	if w := e.pick(); w != first {
		t.Fatal("FIFO must dispatch the earliest arrival even from the bus queue")
	}
	if w := e.pick(); w != second {
		t.Fatal("second pick wrong")
	}
}

func TestTwoEngineSplitRouting(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.NumEngines = 2 })
	cc := r.ccs[0]
	localLine := r.space.AllocOnNode(4096, 0)
	remoteLine := r.space.AllocOnNode(4096, 1)
	if e := cc.engineFor(localLine); e != cc.engines[0] {
		t.Error("local line must route to the LPE")
	}
	if e := cc.engineFor(remoteLine); e != cc.engines[1] {
		t.Error("remote line must route to the RPE")
	}
}

func TestRoundRobinSplitAlternates(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.NumEngines = 2
		c.Split = config.SplitRoundRobin
	})
	cc := r.ccs[0]
	line := r.space.AllocOnNode(4096, 0)
	a := cc.engineFor(line)
	b := cc.engineFor(line)
	if a == b {
		t.Fatal("round-robin split should alternate engines")
	}
}

func TestPerInvalCostPositive(t *testing.T) {
	r := newRig(t, nil)
	if r.ccs[0].perInvalCost() <= 0 {
		t.Fatal("per-invalidation cost must be positive")
	}
}

func TestChargeCountsHandlers(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	occ, act := cc.charge(protocol.HRemoteReadHomeClean, 0, 0)
	if occ <= 0 {
		t.Fatal("occupancy must be positive")
	}
	if act < cc.eng.Now() {
		t.Fatal("action time in the past")
	}
	if cc.HandlerCount(protocol.HRemoteReadHomeClean) != 1 {
		t.Fatal("handler count not recorded")
	}
	// Directory stall extends both occupancy and action time.
	occ2, act2 := cc.charge(protocol.HRemoteReadHomeClean, 20, 0)
	if occ2 != occ+20 || act2 != act+20 {
		t.Fatalf("dir stall not applied: occ %d->%d act %d->%d", occ, occ2, act, act2)
	}
}

func TestDynamicSplitPicksShortestQueue(t *testing.T) {
	r := newRig(t, func(c *config.Config) {
		c.NumEngines = 2
		c.Split = config.SplitDynamic
	})
	cc := r.ccs[0]
	line := r.space.AllocOnNode(4096, 1)
	// Load engine 0 with queued work; the next request must go to engine 1.
	cc.engines[0].q[obs.QReq] = append(cc.engines[0].q[obs.QReq],
		&work{msg: &protocol.Msg{Type: protocol.MsgInval, Line: line}})
	if e := cc.engineFor(line); e != cc.engines[1] {
		t.Fatal("dynamic split should pick the idle engine")
	}
	// Balance them; ties resolve to engine 0.
	cc.engines[1].q[obs.QReq] = append(cc.engines[1].q[obs.QReq],
		&work{msg: &protocol.Msg{Type: protocol.MsgInval, Line: line}})
	if e := cc.engineFor(line); e != cc.engines[0] {
		t.Fatal("dynamic split ties should resolve to the first engine")
	}
}

func TestHandlerBusyAccounting(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	occ, _ := cc.charge(protocol.HInvalAtSharer, 0, 0)
	if got := cc.HandlerBusy(protocol.HInvalAtSharer); got != occ {
		t.Fatalf("handler busy = %d, want %d", got, occ)
	}
}

// rigReq is one processor request a test issues on a rig's bus, with the
// outcomes its Done has received.
type rigReq struct {
	node, src int
	kind      smpbus.Kind
	line      uint64
	outs      []smpbus.Outcome
}

func (r *rig) issue(q *rigReq) {
	r.buses[q.node].Issue(&smpbus.Txn{
		Kind: q.kind, Line: q.line, Src: q.src, HomeLocal: r.space.Home(q.line) == q.node,
		Done: func(o smpbus.Outcome) { q.outs = append(q.outs, o) },
	})
}

// stepUntil runs events until cond holds.
func (r *rig) stepUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for !cond() {
		if !r.eng.Step() {
			t.Fatal("engine drained before the condition held")
		}
	}
}

// TestReplayedWaitersKeepTheirRequests parks requests for two lines on
// home ops' waiter lists and on MSHRs' while the controllers recycle the
// objects of retired ops, and checks that every request is served once,
// for its own line and requester, with the value its line holds.
func TestReplayedWaitersKeepTheirRequests(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Nodes = 3 })
	lineL := r.space.AllocOnNode(4096, 0)
	lineM := lineL + uint64(r.cfg.LineSize)
	for _, b := range r.buses {
		b.AttachSnooper(silentSnooper{})
		b.AttachSnooper(silentSnooper{})
	}
	r.buses[2].AttachSnooper(&ownerSnooper{}) // node 2 supplies the lines it owns
	run := func() {
		if _, err := r.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 shares both lines.
	shared := []*rigReq{{node: 1, src: 0, kind: smpbus.Read, line: lineL}, {node: 1, src: 1, kind: smpbus.Read, line: lineM}}
	for _, q := range shared {
		r.issue(q)
	}
	run()
	// Node 2 reads both exclusive: each home op invalidates node 1's copy.
	// As each op opens, node 1 re-reads the line and the home's own
	// processor reads it. Node 1's ack wins the home's arbitration over its
	// re-read, so the op retires first, and the re-read opens a three-hop
	// op on the retired op's recycled object; the home's read parks on that
	// op. Node 2's interventions for the home's reads arrive right behind
	// its own fills and park on its MSHRs.
	excl := []*rigReq{{node: 2, src: 0, kind: smpbus.ReadEx, line: lineL}, {node: 2, src: 1, kind: smpbus.ReadEx, line: lineM}}
	for _, q := range excl {
		r.issue(q)
	}
	home := r.ccs[0]
	var waiters []*rigReq
	var exclOp *homeOp
	for src, line := range []uint64{lineL, lineM} {
		r.stepUntil(t, func() bool { return home.homeOps[line] != nil })
		if line == lineL {
			exclOp = home.homeOps[line]
		}
		for _, q := range []*rigReq{
			{node: 0, src: src, kind: smpbus.Read, line: line},
			{node: 1, src: src, kind: smpbus.Read, line: line},
		} {
			r.issue(q)
			waiters = append(waiters, q)
		}
	}
	r.stepUntil(t, func() bool { op := home.homeOps[lineL]; return op != nil && op.requester == 1 })
	if home.homeOps[lineL] != exclOp {
		t.Error("the three-hop op did not reuse the retired op's object")
	}
	run()

	for _, q := range append(append(shared, excl...), waiters...) {
		if len(q.outs) != 1 || q.outs[0].Status != smpbus.OK {
			t.Fatalf("node %d %v of %#x: outcomes %+v, want one OK", q.node, q.kind, q.line, q.outs)
		}
	}
	for _, q := range excl {
		if o := q.outs[0]; o.Shared || !o.WithData {
			t.Errorf("node 2 read-exclusive of %#x: outcome %+v, want exclusive data", q.line, o)
		}
	}
	for _, q := range waiters {
		if o := q.outs[0]; !o.Shared || o.Data != q.line {
			t.Errorf("node %d read of %#x: outcome %+v, want shared with value %#x", q.node, q.line, o, q.line)
		}
	}
	if n := home.HandlerCount(protocol.HBusyRequeue); n < 2 {
		t.Errorf("home parked %d requests, want both of its own reads", n)
	}
	if n := r.ccs[2].HandlerCount(protocol.HBusyRequeue); n < 1 {
		t.Errorf("node 2 parked %d interventions, want at least one", n)
	}
	for _, line := range []uint64{lineL, lineM} {
		e := home.dir.Lookup(line)
		if e.State != directory.SharedRemote || !e.Sharers.Has(1) || !e.Sharers.Has(2) {
			t.Errorf("directory for %#x = %+v, want SharedRemote{1,2}", line, e)
		}
	}
	for n, cc := range r.ccs {
		if cc.PendingOps() != 0 {
			t.Errorf("controller %d left %d transient ops", n, cc.PendingOps())
		}
	}
}

// TestStaleTimeoutDoesNothing closes a Robust miss while its timeout is
// still armed and opens a second miss for the same line before the timeout
// fires. The first entry recycled at its fill, so the second miss reuses
// it; the stale timeout then fires in the middle of the second miss and
// neither counts a timeout nor re-issues, and the one entry is back on the
// free list at the end.
func TestStaleTimeoutDoesNothing(t *testing.T) {
	r := newRig(t, func(c *config.Config) { c.Robust = true })
	line := r.space.AllocOnNode(4096, 0)
	r.buses[0].AttachSnooper(silentSnooper{})
	r.buses[1].AttachSnooper(silentSnooper{})
	cc := r.ccs[1]
	var done []sim.Time
	read := func() {
		r.buses[1].Issue(&smpbus.Txn{Kind: smpbus.Read, Line: line, Src: 0,
			Done: func(smpbus.Outcome) { done = append(done, r.eng.Now()) }})
	}
	read()
	r.stepUntil(t, func() bool { return cc.mshr[line] != nil })
	first := cc.mshr[line]
	fires := first.issuedAt + config.RobustRequestTimeout
	r.stepUntil(t, func() bool { return len(done) == 1 && cc.mshr[line] == nil })
	if first.timeouts != 1 {
		t.Fatalf("closed entry counts %d armed timeouts, want 1", first.timeouts)
	}
	r.eng.At(fires-20, sim.Func(read))
	r.stepUntil(t, func() bool { return cc.mshr[line] != nil })
	if second := cc.mshr[line]; second != first {
		t.Fatal("the second miss did not reuse the entry its fill recycled")
	}
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[1] <= fires {
		t.Fatalf("fills at %v, want the second after the stale timeout at %d", done, fires)
	}
	st := &r.runs.Controllers[1]
	if st.Timeouts != 0 || st.Retries != 0 {
		t.Errorf("timeouts=%d retries=%d, want a stale timeout to do nothing", st.Timeouts, st.Retries)
	}
	if n := cc.mshrs.Len(); n != 1 {
		t.Errorf("%d entries on the free list, want the one both misses used", n)
	}
}

// TestTimeoutsHoldNoEntry streams back-to-back remote misses on a Robust
// rig, all within one RobustRequestTimeout, so every miss's timeout is
// still armed when the next miss opens. Each entry recycles at its fill,
// so the misses share one MSHR entry, and a timeout is the entry's bound
// timer, so the stream needs no more conts than one fill does.
func TestTimeoutsHoldNoEntry(t *testing.T) {
	const misses = 8
	r := newRig(t, func(c *config.Config) { c.Robust = true })
	base := r.space.AllocOnNode(4096, 0)
	r.buses[0].AttachSnooper(silentSnooper{})
	r.buses[1].AttachSnooper(silentSnooper{})
	cc := r.ccs[1]
	var done []sim.Time
	var read func()
	read = func() {
		line := base + uint64(len(done)*r.cfg.LineSize)
		r.buses[1].Issue(&smpbus.Txn{Kind: smpbus.Read, Line: line, Src: 0,
			Done: func(smpbus.Outcome) {
				done = append(done, r.eng.Now())
				if len(done) < misses {
					read()
				}
			}})
	}
	r.eng.At(0, sim.Func(read))
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != misses || done[misses-1] >= config.RobustRequestTimeout {
		t.Fatalf("fills at %v, want %d, all before the first timeout at %d", done, misses, config.RobustRequestTimeout)
	}
	if st := &r.runs.Controllers[1]; st.Timeouts != 0 || st.Retries != 0 {
		t.Errorf("timeouts=%d retries=%d, want none", st.Timeouts, st.Retries)
	}
	if n := cc.mshrs.Len(); n != 1 {
		t.Errorf("%d MSHR entries for %d back-to-back misses, want 1", n, misses)
	}
	if n := cc.conts.Len(); n > 2 {
		t.Errorf("%d conts for %d back-to-back misses, want at most the 2 one fill uses", n, misses)
	}
}

// TestStaleStepsDoNothing arms a continuation and a home fetch on an op,
// retires the op, and checks that neither runs once it fires.
func TestStaleStepsDoNothing(t *testing.T) {
	r := newRig(t, nil)
	cc := r.ccs[0]
	line := r.space.AllocOnNode(4096, 0)
	op := cc.newHomeOp(homeOp{line: line, requester: 1})
	ran := 0
	cc.opAt(0, func(*Controller, *homeOp) { ran++ }, op)
	fetch := cc.newTxn(smpbus.Fetch, line, true, func(*Controller, *ccTxn, smpbus.Outcome) { ran++ })
	fetch.op, fetch.gen = op, op.gen
	cc.freeOp(op)
	if reused := cc.newHomeOp(homeOp{line: line, requester: 1}); reused != op {
		t.Fatal("the next op did not reuse the retired op's object")
	}
	fetch.done(smpbus.Outcome{Status: smpbus.OK})
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("%d stale steps ran on the reused op, want none", ran)
	}
	if cc.txns.Len() != 1 || cc.conts.Len() != 1 {
		t.Errorf("%d transactions and %d conts recycled, want 1 each", cc.txns.Len(), cc.conts.Len())
	}
}
