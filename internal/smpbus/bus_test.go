package smpbus

import (
	"runtime"
	"strings"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/sim"
)

// fakeSnooper returns a fixed verdict and records the transactions it saw.
type fakeSnooper struct {
	verdict SnoopResult
	seen    []*Txn
}

func (f *fakeSnooper) Snoop(txn *Txn) SnoopResult {
	f.seen = append(f.seen, txn)
	return f.verdict
}

// fakeCC defers everything it is told to and records events.
type fakeCC struct {
	verdict  SnoopResult
	deferred []*Txn
	wbLines  []uint64
	wbShared []bool
}

func (f *fakeCC) Snoop(*Txn) SnoopResult  { return f.verdict }
func (f *fakeCC) AcceptDeferred(txn *Txn) { f.deferred = append(f.deferred, txn) }
func (f *fakeCC) CaptureWriteBack(line uint64, shared bool, data uint64) {
	f.wbLines = append(f.wbLines, line)
	f.wbShared = append(f.wbShared, shared)
}

func newBus(t *testing.T) (*sim.Engine, *Bus, *config.Config) {
	t.Helper()
	cfg := config.Base()
	eng := sim.NewEngine()
	return eng, New(eng, &cfg, 0, nil), &cfg
}

func issue(eng *sim.Engine, b *Bus, txn *Txn) *Outcome {
	var got *Outcome
	txn.Done = func(o Outcome) { c := o; got = &c }
	eng.At(eng.Now(), sim.Func(func() { b.Issue(txn) }))
	return got
}

func TestLocalReadFromMemoryTiming(t *testing.T) {
	eng, b, cfg := newBus(t)
	snp := &fakeSnooper{verdict: SnoopNone}
	src := b.AttachSnooper(snp)
	var doneAt sim.Time = -1
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src, HomeLocal: true, Done: func(o Outcome) {
			doneAt = eng.Now()
			out = o
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Grant at 0, strobe at +BusArb(4), bank grant at 4, data start at
	// 4+MemAccess(20)=24, critical quad at +CriticalQuad(4)=28.
	want := cfg.BusArb + cfg.MemAccess + cfg.CriticalQuad
	if doneAt != want {
		t.Fatalf("read completed at %d, want %d", doneAt, want)
	}
	if out.Status != OK || out.Shared {
		t.Fatalf("outcome %+v, want OK exclusive", out)
	}
	if b.Count(Read) != 1 {
		t.Fatalf("read count = %d", b.Count(Read))
	}
}

func TestReadSharedWhenSiblingHolds(t *testing.T) {
	eng, b, cfg := newBus(t)
	b.AttachSnooper(&fakeSnooper{verdict: SnoopShared})
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	var out Outcome
	var doneAt sim.Time
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src, HomeLocal: true, Done: func(o Outcome) {
			out = o
			doneAt = eng.Now()
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Shared {
		t.Fatal("read with sibling sharer should install Shared")
	}
	// Cache-to-cache: strobe(4) + CacheToCache(16) + CriticalQuad(4).
	want := cfg.BusArb + cfg.CacheToCache + cfg.CriticalQuad
	if doneAt != want {
		t.Fatalf("c2c read completed at %d, want %d", doneAt, want)
	}
}

func TestReadFromDirtyOwner(t *testing.T) {
	eng, b, _ := newBus(t)
	owner := &fakeSnooper{verdict: SnoopOwned}
	b.AttachSnooper(owner)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: 0x2000, Src: src, HomeLocal: false, Done: func(o Outcome) { out = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !out.Dirty || !out.Shared || out.Status != OK {
		t.Fatalf("outcome %+v, want dirty shared OK", out)
	}
	if len(owner.seen) != 1 || owner.seen[0].Kind != Read {
		t.Fatal("owner was not snooped")
	}
}

func TestRemoteReadDefersToController(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	completed := false
	var parked *Txn
	eng.At(0, sim.Func(func() {
		txn := &Txn{Kind: Read, Line: 0x3000, Src: src, HomeLocal: false, Done: func(o Outcome) {
			completed = true
			if o.Status != OK || !o.Shared {
				t.Errorf("outcome %+v", o)
			}
		}}
		parked = txn
		b.Issue(txn)
	}))
	eng.At(100, sim.Func(func() {
		if len(cc.deferred) != 1 || cc.deferred[0] != parked {
			t.Fatal("controller did not receive the deferred transaction")
		}
		if completed {
			t.Fatal("deferred transaction completed early")
		}
		b.Supply(parked, true, true, 0)
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("deferred transaction never completed")
	}
}

func TestSupplyWithoutData(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	var doneAt sim.Time = -1
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Upgrade, Line: 0x3000, Src: src, HomeLocal: true, Done: func(o Outcome) {
			doneAt = eng.Now()
		}})
	}))
	eng.At(50, sim.Func(func() { b.Supply(cc.deferred[0], false, false, 0) }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Supply issued at 50: grant 50, strobe 54, complete 56.
	if doneAt != 56 {
		t.Fatalf("grant arrived at %d, want 56", doneAt)
	}
}

func TestUpgradeCompletesLocallyWithoutRemoteSharers(t *testing.T) {
	eng, b, _ := newBus(t)
	sib := &fakeSnooper{verdict: SnoopShared}
	b.AttachSnooper(sib)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopNone}
	b.AttachController(cc)
	var doneAt sim.Time = -1
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Upgrade, Line: 0x1000, Src: src, HomeLocal: true, Done: func(o Outcome) {
			doneAt = eng.Now()
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 6 { // strobe at 4 + 2
		t.Fatalf("upgrade completed at %d, want 6", doneAt)
	}
	if len(cc.deferred) != 0 {
		t.Fatal("upgrade should not have been deferred")
	}
	if len(sib.seen) != 1 {
		t.Fatal("sibling must snoop the upgrade to invalidate its copy")
	}
}

func TestWriteBackLocalGoesToMemory(t *testing.T) {
	eng, b, cfg := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopNone}
	b.AttachController(cc)
	var doneAt sim.Time = -1
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: WriteBack, Line: 0x1000, Src: src, HomeLocal: true, Done: func(o Outcome) {
			doneAt = eng.Now()
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// strobe 4, data starts 6, ends 6+16=22.
	want := cfg.BusArb + 2 + cfg.BusDataTime()
	if doneAt != want {
		t.Fatalf("writeback completed at %d, want %d", doneAt, want)
	}
	if len(cc.wbLines) != 0 {
		t.Fatal("local writeback must not use the direct data path")
	}
}

func TestWriteBackRemoteUsesDirectDataPath(t *testing.T) {
	eng, b, _ := newBus(t)
	sib := &fakeSnooper{verdict: SnoopShared}
	b.AttachSnooper(sib)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopNone}
	b.AttachController(cc)
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: WriteBack, Line: 0x2000, Src: src, HomeLocal: false, Done: func(Outcome) {}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cc.wbLines) != 1 || cc.wbLines[0] != 0x2000 {
		t.Fatalf("controller captured %v", cc.wbLines)
	}
	if !cc.wbShared[0] {
		t.Fatal("sibling sharer should be reported to the controller")
	}
}

func TestSameLineConflictRetries(t *testing.T) {
	eng, b, _ := newBus(t)
	src0 := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	src1 := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	var second Outcome
	secondDone := false
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src0, HomeLocal: false, Done: func(Outcome) {}})
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src1, HomeLocal: false, Done: func(o Outcome) {
			second = o
			secondDone = true
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondDone || second.Status != RetryNeeded {
		t.Fatalf("second transaction outcome %+v, want RetryNeeded", second)
	}
	if b.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", b.Retries())
	}
}

func TestFetchFromMemoryAndFromOwner(t *testing.T) {
	eng, b, _ := newBus(t)
	owner := &fakeSnooper{verdict: SnoopOwned}
	b.AttachSnooper(owner)
	var fromOwner, fromMem Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Fetch, Line: 0x1000, Src: CCSrc, HomeLocal: true, Done: func(o Outcome) { fromOwner = o }})
	}))
	eng.At(200, sim.Func(func() {
		owner.verdict = SnoopNone
		b.Issue(&Txn{Kind: Fetch, Line: 0x2000, Src: CCSrc, HomeLocal: true, Done: func(o Outcome) { fromMem = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fromOwner.Dirty {
		t.Fatalf("owner fetch outcome %+v, want dirty", fromOwner)
	}
	if fromMem.Dirty || fromMem.Status != OK {
		t.Fatalf("memory fetch outcome %+v", fromMem)
	}
}

func TestFetchRemoteNoCopyReturnsNoData(t *testing.T) {
	eng, b, _ := newBus(t)
	b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: FetchEx, Line: 0x2000, Src: CCSrc, HomeLocal: false, Done: func(o Outcome) { out = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Status != NoData {
		t.Fatalf("outcome %+v, want NoData", out)
	}
}

func TestAbortBouncesParkedTransaction(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Upgrade, Line: 0x1000, Src: src, HomeLocal: false, Done: func(o Outcome) { out = o }})
	}))
	eng.At(100, sim.Func(func() { b.Abort(cc.deferred[0]) }))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Status != RetryNeeded {
		t.Fatalf("outcome %+v, want RetryNeeded", out)
	}
}

func TestBankContentionSerializesSameBank(t *testing.T) {
	eng, b, cfg := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	// Two lines in the same bank: stride = MemBanks * LineSize.
	lineA := uint64(0x0000)
	lineB := lineA + uint64(cfg.MemBanks*cfg.LineSize)
	_ = lineB
	var times []sim.Time
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: lineA, Src: src, HomeLocal: true, Done: func(Outcome) { times = append(times, eng.Now()) }})
		b.Issue(&Txn{Kind: Read, Line: lineA + 4*uint64(cfg.LineSize), Src: src, HomeLocal: true, Done: func(Outcome) { times = append(times, eng.Now()) }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("completions: %v", times)
	}
	// Second access to the same bank waits for BankBusy(40) from the first
	// bank grant (4): data at 44+20, done at 68.
	if times[1]-times[0] < cfg.BankBusy-cfg.AddrStrobe {
		t.Fatalf("same-bank accesses not serialized: %v", times)
	}
}

func TestUnalignedLinePanics(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	defer func() {
		if recover() == nil {
			t.Error("unaligned line did not panic")
		}
	}()
	b.Issue(&Txn{Kind: Read, Line: 0x1001, Src: src, HomeLocal: true, Done: func(Outcome) {}})
	_, _ = eng.Run()
}

func TestMissingDoneCallbackPanics(t *testing.T) {
	_, b, _ := newBus(t)
	defer func() {
		if recover() == nil {
			t.Error("missing Done did not panic")
		}
	}()
	b.Issue(&Txn{Kind: Read, Line: 0x1000})
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

func TestUpgradeOwnedSiblingTransfersInNode(t *testing.T) {
	eng, b, _ := newBus(t)
	owner := &fakeSnooper{verdict: SnoopOwned}
	b.AttachSnooper(owner)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer} // the CC would defer, but ownership wins
	b.AttachController(cc)
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Upgrade, Line: 0x1000, Src: src, HomeLocal: false, Done: func(o Outcome) { out = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || !out.WithData || !out.Dirty {
		t.Fatalf("outcome %+v, want in-node dirty transfer with data", out)
	}
	if len(cc.deferred) != 0 {
		t.Fatal("upgrade with an Owned sibling must not reach the home")
	}
}

func TestUpgradeRequesterOwnsCompletesLocally(t *testing.T) {
	eng, b, _ := newBus(t)
	sib := &fakeSnooper{verdict: SnoopShared}
	b.AttachSnooper(sib)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Upgrade, Line: 0x2000, Src: src, HomeLocal: false,
			RequesterOwns: true, Done: func(o Outcome) { out = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || out.WithData {
		t.Fatalf("outcome %+v, want bare local grant", out)
	}
	if len(cc.deferred) != 0 {
		t.Fatal("dirty-owner upgrade must not consult the home")
	}
	if len(sib.seen) != 1 {
		t.Fatal("siblings must be snooped (invalidated)")
	}
}

func TestLocalReadInstallsSharedWhenDirectoryReportsSharers(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopShared} // bus-side directory: remote sharers exist
	b.AttachController(cc)
	var out Outcome
	eng.At(0, sim.Func(func() {
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src, HomeLocal: true, Done: func(o Outcome) { out = o }})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || !out.Shared {
		t.Fatalf("outcome %+v: memory served the line but it must install Shared", out)
	}
}

func TestWriteBackPassesParkedTransaction(t *testing.T) {
	eng, b, _ := newBus(t)
	src0 := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	src1 := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)
	wbDone := false
	eng.At(0, sim.Func(func() {
		// First a read that gets parked with the controller.
		b.Issue(&Txn{Kind: Read, Line: 0x2000, Src: src0, HomeLocal: false, Done: func(Outcome) {}})
	}))
	eng.At(50, sim.Func(func() {
		// Then a write-back of the same line from the sibling: it must NOT
		// bounce on the parked read (livelock otherwise).
		b.Issue(&Txn{Kind: WriteBack, Line: 0x2000, Src: src1, HomeLocal: false, Done: func(o Outcome) {
			wbDone = o.Status == OK
		}})
	}))
	eng.At(500, sim.Func(func() {
		if len(cc.deferred) == 1 {
			b.Supply(cc.deferred[0], true, true, 0)
		}
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !wbDone {
		t.Fatal("write-back blocked behind a parked transaction")
	}
	if len(cc.wbLines) != 1 {
		t.Fatal("write-back never captured by the direct data path")
	}
}

func TestCCInterventionBouncesOnLiveTransfer(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	var outcomes []Status
	eng.At(0, sim.Func(func() {
		// Live local read occupies the line (memory path, done ~28 cycles).
		b.Issue(&Txn{Kind: Read, Line: 0x1000, Src: src, HomeLocal: true, Done: func(Outcome) {}})
		// CC fetch for the same line strobes mid-flight: it must bounce,
		// and the bus re-issues it itself until it completes.
		b.Issue(&Txn{Kind: Fetch, Line: 0x1000, Src: CCSrc, HomeLocal: true, Done: func(o Outcome) {
			outcomes = append(outcomes, o.Status)
		}})
	}))
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 1 || outcomes[0] != OK {
		t.Fatalf("outcomes %v, want one OK", outcomes)
	}
	if got := b.Retries(); got != 1 {
		t.Fatalf("retries = %d, want 1 bounce before the re-issued fetch lands", got)
	}
}

// TestTxnReissue re-issues one transaction after a bounce, after a deferred
// Supply and after an Abort, the way a processor re-issues its miss
// transaction for every attempt. Done must run once per issue with that
// issue's outcome, the completed issue must free its pending slot, and
// the next issue must start with no parked or snoop state.
func TestTxnReissue(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	other := b.AttachSnooper(&fakeSnooper{verdict: SnoopNone})
	cc := &fakeCC{verdict: SnoopDefer}
	b.AttachController(cc)

	var outs []Outcome
	txn := &Txn{Src: src, Done: func(o Outcome) { outs = append(outs, o) }}
	reissue := func(kind Kind, line uint64, homeLocal bool) {
		t.Helper()
		txn.Kind, txn.Line, txn.HomeLocal = kind, line, homeLocal
		eng.At(eng.Now(), sim.Func(func() {
			b.Issue(txn)
			if txn.deferredToCC || txn.snoopData != 0 {
				t.Errorf("issue of %v line %#x kept parked=%v snoopData=%#x from the last issue",
					kind, line, txn.deferredToCC, txn.snoopData)
			}
		}))
	}
	settle := func(want Outcome) {
		t.Helper()
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0] != want {
			t.Fatalf("issue of %v line %#x: Done saw %+v, want once with %+v", txn.Kind, txn.Line, outs, want)
		}
		outs = outs[:0]
		if s := b.pending[src]; s.txn != nil {
			t.Fatalf("pending slot still holds the completed issue under line %#x", s.line)
		}
	}

	// A bounce: another processor's read of the line is parked first.
	blocker := &Txn{Kind: Read, Line: 0x1000, Src: other, Done: func(Outcome) {}}
	eng.At(0, sim.Func(func() { b.Issue(blocker) }))
	reissue(Read, 0x1000, false)
	settle(Outcome{Status: RetryNeeded})
	if b.pending[other] != (pendingSlot{line: 0x1000, txn: blocker}) {
		t.Fatal("the bounce disturbed the parked transaction's pending slot")
	}

	// A deferred Supply with data.
	reissue(ReadEx, 0x2000, false)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cc.deferred) != 2 || cc.deferred[1] != txn || b.pending[src] != (pendingSlot{line: 0x2000, txn: txn}) {
		t.Fatal("the re-issued transaction was not parked with the controller")
	}
	b.Supply(txn, true, false, 0x55)
	settle(Outcome{Status: OK, WithData: true, Data: 0x55})

	// An Abort of the parked transaction.
	reissue(Upgrade, 0x2000, false)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	b.Abort(cc.deferred[2])
	settle(Outcome{Status: RetryNeeded})

	// After the Abort the transaction is live again, not parked: a
	// controller fetch of its line must bounce off its memory read instead
	// of passing it as it would pass a parked one.
	cc.verdict = SnoopNone
	reissue(Read, 0x3000, true)
	var fetch Outcome
	eng.At(eng.Now(), sim.Func(func() {
		b.Issue(&Txn{Kind: Fetch, Line: 0x3000, Src: CCSrc, HomeLocal: true, Done: func(o Outcome) { fetch = o }})
	}))
	retries := b.Retries()
	settle(Outcome{Status: OK})
	if b.Retries() != retries+1 || fetch.Status != OK {
		t.Fatalf("controller fetch: %d bounces, outcome %+v; want one bounce, then OK",
			b.Retries()-retries, fetch)
	}
	b.Supply(blocker, true, true, 0)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range b.pending {
		if s.txn != nil {
			t.Fatalf("pending slot %d still holds line %#x at the end", i, s.line)
		}
	}
}

// verdictSnooper answers every snoop with its verdict and records nothing.
type verdictSnooper SnoopResult

func (v verdictSnooper) Snoop(*Txn) SnoopResult { return SnoopResult(v) }

// parkingCC answers the controller snoop with verdict, keeps the last
// transaction deferred to it and counts captured write-backs, allocating
// nothing.
type parkingCC struct {
	verdict  SnoopResult
	parked   *Txn
	captured int
}

func (c *parkingCC) Snoop(*Txn) SnoopResult                         { return c.verdict }
func (c *parkingCC) AcceptDeferred(txn *Txn)                        { c.parked = txn }
func (c *parkingCC) CaptureWriteBack(line uint64, _ bool, _ uint64) { c.captured++ }

// ignoreOutcome is a Done for transactions whose outcome the test does not
// read.
func ignoreOutcome(Outcome) {}

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTxnBindsOneCallback pins what a transaction costs the bus: its steps
// are typed actions over the transaction itself, so scheduling them binds
// nothing. One transaction is driven through a bounce, a memory read, a
// deferred Supply, an Abort and a remote write-back. The first pass may
// allocate only the deferred reply that Supply makes once per parked
// transaction; the second pass allocates nothing.
func TestTxnBindsOneCallback(t *testing.T) {
	eng, b, _ := newBus(t)
	src := b.AttachSnooper(verdictSnooper(SnoopNone))
	other := b.AttachSnooper(verdictSnooper(SnoopNone))
	cc := &parkingCC{}
	b.AttachController(cc)

	var got Outcome
	done := 0
	txn := &Txn{Src: src, Done: func(o Outcome) { got, done = o, done+1 }}
	blocker := &Txn{Kind: Read, Line: 0x1000, Src: other, HomeLocal: true, Done: ignoreOutcome}
	run := func() {
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	issue := func(kind Kind, line uint64, homeLocal bool) {
		txn.Kind, txn.Line, txn.HomeLocal = kind, line, homeLocal
		b.Issue(txn)
	}
	expect := func(step string, want Outcome) {
		if done != 1 || got != want {
			t.Fatalf("%s: Done ran %d times, last with %+v; want once with %+v", step, done, got, want)
		}
		done = 0
	}
	pass := func() {
		// A bounce off the blocker's live memory read of the same line.
		cc.verdict = SnoopNone
		b.Issue(blocker)
		issue(Read, 0x1000, true)
		run()
		expect("bounce", Outcome{Status: RetryNeeded})
		// A memory read.
		issue(Read, 0x2000, true)
		run()
		expect("memory read", Outcome{Status: OK})
		// A deferred Supply with data.
		cc.verdict = SnoopDefer
		issue(ReadEx, 0x3000, false)
		run()
		b.Supply(cc.parked, true, false, 0x55)
		run()
		expect("supply", Outcome{Status: OK, WithData: true, Data: 0x55})
		// An Abort of the parked transaction.
		issue(Upgrade, 0x3000, false)
		run()
		b.Abort(cc.parked)
		run()
		expect("abort", Outcome{Status: RetryNeeded})
		// A remote write-back through the direct data path.
		cc.verdict = SnoopNone
		txn.Data = 0x77
		issue(WriteBack, 0x4000, false)
		run()
		expect("write-back", Outcome{Status: OK})
	}

	// The engine reserves its event slab before anything is counted.
	b.Issue(blocker)
	run()
	first, second := mallocs(pass), mallocs(pass)
	if first > 1 {
		t.Errorf("first pass allocated %d objects, want at most 1: the deferred reply", first)
	}
	if second != 0 {
		t.Errorf("second pass allocated %d objects, want 0", second)
	}
	if cc.captured != 2 {
		t.Errorf("direct data path captured %d write-backs, want 2", cc.captured)
	}
}

// TestSecondStepPanics pins the one-step rule: a transaction with a step
// in flight cannot be given a second, so aborting one that is not parked
// panics, naming the transaction.
func TestSecondStepPanics(t *testing.T) {
	_, b, _ := newBus(t)
	src := b.AttachSnooper(verdictSnooper(SnoopNone))
	txn := &Txn{Kind: Read, Line: 0x1000, Src: src, HomeLocal: true, Done: ignoreOutcome}
	b.Issue(txn) // its grant is in flight
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Read of line 0x1000") || !strings.Contains(msg, "another in flight") {
			t.Fatalf("panic %q, want one naming the Read of line 0x1000 and the step in flight", msg)
		}
	}()
	b.Abort(txn)
}
