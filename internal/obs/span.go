// Causal span tracing: every coherence transaction (one processor miss
// episode) carries a stable ID from the cycle its miss is detected to the
// cycle its processor restarts, and each component it crosses checkpoints
// the stages of its life through its Tracer. The tracer tiles each
// transaction's lifetime with half-open stage segments: a checkpoint at
// cycle t closes the interval [cursor, t) under the named stage and
// advances the cursor, so the stages of a completed transaction always
// partition its end-to-end latency exactly — conservation holds by
// construction, and the residue between the last checkpoint and the
// processor restart is attributed to the fill stage. Checkpoints that would
// move the cursor backwards (stale duplicates, replayed messages under
// fault injection) are silent no-ops; the only conservation violation the
// tracer can record is a transaction finishing before its own cursor, which
// would mean a component checkpointed time the processor never observed.
//
// The tracer keeps only what nothing else records: the per-stage tiling.
// A transaction's end-to-end latency is the processor's miss latency, so
// the completed count, the end-to-end distribution and the conservation
// reference all come from the run's miss-latency record.
package obs

import (
	"fmt"

	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

// Stage identifies one segment class of a transaction's lifetime.
type Stage int

const (
	// StageStall is the L2 miss-detect window before the bus request issues.
	StageStall Stage = iota
	// StageBusArb is SMP bus arbitration: issue to address strobe.
	StageBusArb
	// StageBus is bus occupancy after the strobe: snoop, data transfer,
	// critical-quad delivery (or the bounce delay of a conflicting retry).
	StageBus
	// StageMem is local-memory bank access time (home memory fetches and
	// the owner/home bus fetches a protocol handler performs).
	StageMem
	// StageCCQueue is coherence-controller input-queue wait: arrival at a
	// protocol engine's queue to handler dispatch — the paper's occupancy
	// bottleneck.
	StageCCQueue
	// StageEngine is protocol-engine occupancy up to the handler's action
	// point (the Table 2 sub-operation sequence actually on the critical
	// path of this transaction).
	StageEngine
	// StageDirectory is directory/DRAM access stalled on under a handler.
	StageDirectory
	// StageHomeWait is home-side transient-op wait: the window where the
	// home has dispatched the request but is collecting invalidation acks,
	// owner data, or an eviction write-back before it can grant.
	StageHomeWait
	// StageNIPort is network-interface port buffering (output-port queue
	// and serialization wait, including reliable-link retransmission holds).
	StageNIPort
	// StageWire is network flight time: out-port grant to last flit drained
	// into the destination NI.
	StageWire
	// StageBackoff is recovery wait: NACK back-off and timeout windows
	// between a bounced request and its re-issue.
	StageBackoff
	// StageFill is the residue between the last checkpoint and the
	// processor's restart: cache fill and restart scheduling.
	StageFill

	numStages
)

var stageNames = [numStages]string{
	"stall", "bus-arb", "bus-xfer", "mem", "cc-queue", "engine",
	"directory", "home-wait", "ni-port", "wire", "backoff", "fill",
}

func (s Stage) String() string {
	if s >= 0 && s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// NumStages is the number of attribution stages.
const NumStages = int(numStages)

// StageName returns the report name of stage index i.
func StageName(i int) string { return Stage(i).String() }

// EvSpan marker kinds (Event.B).
const (
	spanMarkBegin  = 0 // stage entry marker, Dur = 0
	spanMarkSlice  = 1 // measured stage slice, Dur = its length
	spanMarkFinish = 2 // transaction finish, Dur = end-to-end latency
)

// spanState is one open transaction's tracking state.
type spanState struct {
	line   uint64
	node   int32
	start  sim.Time
	cursor sim.Time
	epoch  uint32
	segs   [numStages]sim.Time
}

// EnableAttribution turns span tiling on. The machine calls it before any
// component records, when Config.Attribution is set.
func (t *Tracer) EnableAttribution() { t.open = make(map[uint64]*spanState) }

// Attributing reports whether the tracer tiles transaction spans.
func (t *Tracer) Attributing() bool { return t != nil && t.open != nil }

// span emits one EvSpan checkpoint event for st's transaction (a no-op
// unless the tracer records events). Callers emit after releasing mu, so
// the lock is never held across the sink.
func (t *Tracer) span(at, dur sim.Time, st *spanState, stage string, txn uint64, mark int64) {
	if !t.events {
		return
	}
	t.record(Event{At: at, Dur: dur, Kind: EvSpan, Node: st.node,
		Line: st.line, A: int64(txn), B: mark, Name: stage})
}

// SpanStart opens transaction txn at time at: the requesting processor
// detected a miss on line. An ID of zero (untracked work) is ignored.
func (t *Tracer) SpanStart(txn uint64, node int, line uint64, at sim.Time) {
	if !t.Attributing() || txn == 0 {
		return
	}
	t.mu.Lock()
	t.open[txn] = &spanState{line: line, node: int32(node), start: at, cursor: at}
	t.mu.Unlock()
}

// SpanEpoch tags the open transaction with its current request episode so
// checkpoints carrying a stale epoch (messages from a closed, retried
// episode) are ignored. A new episode (timeout or NACK re-issue) simply
// calls SpanEpoch again.
func (t *Tracer) SpanEpoch(txn uint64, epoch uint32) {
	if t.Attributing() {
		t.spanEpoch(txn, epoch)
	}
}

func (t *Tracer) spanEpoch(txn uint64, epoch uint32) {
	t.mu.Lock()
	if st := t.open[txn]; st != nil {
		st.epoch = epoch
	}
	t.mu.Unlock()
}

// match resolves a checkpoint to its open transaction. Epoch zero on
// either side is a wildcard (bus- and CPU-side checkpoints predate epoch
// minting; the base configuration never mints epochs at all).
func (t *Tracer) match(txn uint64, epoch uint32) *spanState {
	st := t.open[txn]
	if st == nil {
		return nil
	}
	if st.epoch != 0 && epoch != 0 && st.epoch != epoch {
		return nil
	}
	return st
}

// SpanBegin marks the entry of txn into a stage at time at. It is an
// informational marker (the attribution math is driven entirely by
// SpanEnd's cursor tiling): it emits a trace event for cctrace/Perfetto
// and anchors the lint pairing rule, but moves no cursor.
func (t *Tracer) SpanBegin(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	if t.Attributing() {
		t.spanBegin(txn, stage, epoch, at)
	}
}

func (t *Tracer) spanBegin(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	t.mu.Lock()
	st := t.match(txn, epoch)
	t.mu.Unlock()
	if st != nil {
		t.span(at, 0, st, stage.String(), txn, spanMarkBegin)
	}
}

// SpanEnd closes the open interval [cursor, at) under the given stage and
// advances the cursor. Checkpoints at or before the cursor (duplicate or
// stale deliveries, same-cycle hops) are silent no-ops: they attribute
// zero cycles rather than corrupt the tiling.
func (t *Tracer) SpanEnd(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	if t.Attributing() {
		t.spanEnd(txn, stage, epoch, at)
	}
}

func (t *Tracer) spanEnd(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	t.mu.Lock()
	st := t.match(txn, epoch)
	if st == nil || at <= st.cursor {
		t.mu.Unlock()
		return
	}
	from := st.cursor
	st.segs[stage] += at - from
	st.cursor = at
	t.mu.Unlock()
	t.span(from, at-from, st, stage.String(), txn, spanMarkSlice)
}

// SpanFinish completes transaction txn at time at (the processor restart),
// attributing the residue past the last checkpoint to StageFill and
// folding the transaction's stages into the per-stage distributions. A
// finish before the transaction's own cursor is the one true conservation
// violation: some component checkpointed cycles past the observed
// end-to-end latency.
func (t *Tracer) SpanFinish(txn uint64, at sim.Time) {
	if t.Attributing() {
		t.spanFinish(txn, at)
	}
}

func (t *Tracer) spanFinish(txn uint64, at sim.Time) {
	t.mu.Lock()
	st := t.open[txn]
	if st == nil {
		t.mu.Unlock()
		return
	}
	delete(t.open, txn)
	if at < st.cursor {
		t.violations++
		t.mu.Unlock()
		return
	}
	fill := at - st.cursor
	st.segs[StageFill] += fill
	for i, seg := range st.segs {
		if seg > 0 {
			t.stages[i].Add(seg)
		}
	}
	t.mu.Unlock()
	if fill > 0 {
		t.span(st.cursor, fill, st, StageFill.String(), txn, spanMarkSlice)
	}
	t.span(st.start, at-st.start, st, "txn", txn, spanMarkFinish)
}

// OpenSpans returns how many transactions are currently open.
func (t *Tracer) OpenSpans() int {
	if !t.Attributing() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Attribution snapshots the per-stage tiling into the stats-layer form the
// reports consume. Returns nil unless the tracer is attributing.
func (t *Tracer) Attribution() *stats.Attribution {
	if !t.Attributing() {
		return nil
	}
	a := &stats.Attribution{Violations: t.violations}
	for i := Stage(0); i < numStages; i++ {
		a.Stages = append(a.Stages, stats.StageAttribution{Stage: i.String(), Hist: t.stages[i]})
	}
	return a
}

// CheckConservation verifies the tiling's global invariants after a run:
// no transaction finished past its cursor, no transaction leaked open, and
// the per-stage cycles sum exactly to the processors' own miss-latency
// record miss.
func (t *Tracer) CheckConservation(miss *stats.Histogram) error {
	if !t.Attributing() {
		return nil
	}
	if t.violations > 0 {
		return fmt.Errorf("obs: %d span conservation violations (stage cycles past end-to-end latency)", t.violations)
	}
	if len(t.open) > 0 {
		return fmt.Errorf("obs: %d transaction spans leaked open after run end", len(t.open))
	}
	if sum := t.Attribution().TotalCycles(); int64(sum) != miss.Sum {
		return fmt.Errorf("obs: stage cycles (%d) != miss-latency cycles (%d) over %d misses",
			sum, miss.Sum, miss.Count)
	}
	return nil
}
