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
	r.net = interconnect.New([]*sim.Engine{r.eng, r.eng}, &r.cfg, nil)
	r.runs = stats.NewRun(cfg.ArchName(), "rig", cfg.EngineCounts())
	for n := 0; n < cfg.Nodes; n++ {
		bus := smpbus.New(r.eng, &r.cfg, n, nil)
		dir := directory.New(r.eng, &r.cfg, n, nil)
		cc := New(r.eng, &r.cfg, n, bus, r.net, dir, r.space, &r.runs.Controllers[n], nil)
		r.buses = append(r.buses, bus)
		r.ccs = append(r.ccs, cc)
	}
	return r
}

// silentSnooper holds no lines.
type silentSnooper struct{}

func (silentSnooper) Snoop(*smpbus.Txn) smpbus.SnoopResult { return smpbus.SnoopNone }

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
	r.eng.At(0, func() {
		r.buses[1].Issue(&smpbus.Txn{
			Kind: smpbus.Read, Line: line, Src: 0, HomeLocal: false,
			Done: func(o smpbus.Outcome) { c := o; out = &c },
		})
	})
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
		r.eng.At(0, func() {
			r.buses[1].Issue(&smpbus.Txn{
				Kind: smpbus.Read, Line: line, Src: 0, HomeLocal: false,
				Done: func(o smpbus.Outcome) { c := o; out = &c },
			})
		})
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
	r.eng.At(0, func() {
		r.buses[1].Issue(&smpbus.Txn{
			Kind: smpbus.ReadEx, Line: line, Src: 0, HomeLocal: false,
			Done: func(o smpbus.Outcome) {
				done = true
				if o.Status != smpbus.OK || o.Shared {
					t.Errorf("outcome %+v", o)
				}
			},
		})
	})
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
	r.eng.At(0, func() { r.ccs[1].CaptureWriteBack(line, false, 0) })
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
	r.eng.At(0, func() { r.ccs[1].CaptureWriteBack(line, true, 0) })
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
