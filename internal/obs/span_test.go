package obs

import (
	"strings"
	"testing"

	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

// attributing returns a tracer that tiles spans and records no events.
func attributing() *Tracer {
	t := new(Tracer)
	t.EnableAttribution()
	return t
}

// missRecord builds the processors' miss-latency record the conservation
// check compares against.
func missRecord(lat ...sim.Time) *stats.Histogram {
	var h stats.Histogram
	for _, l := range lat {
		h.Add(l)
	}
	return &h
}

// stageCycles returns each stage's attributed cycles by name.
func stageCycles(t *Tracer) map[string]int64 {
	out := map[string]int64{}
	for _, st := range t.Attribution().Stages {
		out[st.Stage] = st.Hist.Sum
	}
	return out
}

// TestSpanTiling checks the cursor-tiling core: checkpoints close half-open
// intervals under their stage, the residue before SpanFinish lands in the
// fill stage, and the stages partition the end-to-end latency exactly.
func TestSpanTiling(t *testing.T) {
	s := attributing()
	s.SpanStart(1, 0, 0x40, 100)
	s.SpanEnd(1, StageStall, 0, 110)  // [100,110) stall
	s.SpanEnd(1, StageBusArb, 0, 115) // [110,115) bus-arb
	s.SpanEnd(1, StageBus, 0, 140)    // [115,140) bus-xfer
	s.SpanFinish(1, 150)              // [140,150) fill

	a := s.Attribution()
	if a.Violations != 0 {
		t.Fatalf("violations = %d, want 0", a.Violations)
	}
	want := map[string]int64{"stall": 10, "bus-arb": 5, "bus-xfer": 25, "fill": 10}
	for stage, got := range stageCycles(s) {
		if got != want[stage] {
			t.Errorf("stage %s = %d cycles, want %d", stage, got, want[stage])
		}
	}
	if a.TotalCycles() != 50 {
		t.Errorf("stage sum %d, want 50", a.TotalCycles())
	}
	if err := s.CheckConservation(missRecord(50)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConservation(missRecord(50, 7)); err == nil || !strings.Contains(err.Error(), "miss-latency") {
		t.Fatalf("CheckConservation against a longer miss record = %v, want mismatch error", err)
	}
}

// TestSpanBackwardCheckpointsIgnored checks that stale or duplicate
// checkpoints (at or before the cursor) attribute nothing rather than
// corrupt the tiling — chaos duplicates and replayed messages hit this.
func TestSpanBackwardCheckpointsIgnored(t *testing.T) {
	s := attributing()
	s.SpanStart(7, 0, 0x80, 0)
	s.SpanEnd(7, StageBus, 0, 50)
	s.SpanEnd(7, StageWire, 0, 30) // backward: ignored
	s.SpanEnd(7, StageWire, 0, 50) // zero-length: ignored
	s.SpanFinish(7, 60)
	if got := stageCycles(s)["wire"]; got != 0 {
		t.Errorf("backward checkpoint attributed %d cycles to wire", got)
	}
	if err := s.CheckConservation(missRecord(60)); err != nil {
		t.Fatal(err)
	}
}

// TestSpanEpochFilter checks episode filtering: once an epoch is set, a
// checkpoint carrying a different non-zero epoch is ignored, while epoch
// zero on either side remains a wildcard.
func TestSpanEpochFilter(t *testing.T) {
	s := attributing()
	s.SpanStart(3, 0, 0xc0, 0)
	s.SpanEpoch(3, 2)
	s.SpanEnd(3, StageWire, 1, 40) // stale episode: ignored
	s.SpanEnd(3, StageWire, 2, 30) // current episode
	s.SpanEnd(3, StageBus, 0, 35)  // wildcard side
	s.SpanFinish(3, 35)
	got := stageCycles(s)
	if got["wire"] != 30 {
		t.Errorf("wire = %d, want 30 (stale epoch must be ignored)", got["wire"])
	}
	if got["bus-xfer"] != 5 {
		t.Errorf("bus-xfer = %d, want 5 (zero epoch is a wildcard)", got["bus-xfer"])
	}
	if err := s.CheckConservation(missRecord(35)); err != nil {
		t.Fatal(err)
	}
}

// TestSpanViolation checks the one true conservation failure: a transaction
// finishing before its own cursor (a component checkpointed cycles the
// processor never observed) is counted and fails CheckConservation.
func TestSpanViolation(t *testing.T) {
	s := attributing()
	s.SpanStart(9, 0, 0x100, 0)
	s.SpanEnd(9, StageBus, 0, 100)
	s.SpanFinish(9, 90)
	if v := s.Attribution().Violations; v != 1 {
		t.Fatalf("violations = %d, want 1", v)
	}
	err := s.CheckConservation(missRecord(90))
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("CheckConservation = %v, want violation error", err)
	}
}

// TestSpanReclaim checks span-state lifecycle: SpanFinish reclaims the
// open entry, unknown-transaction operations are no-ops, and a leaked open
// transaction fails CheckConservation.
func TestSpanReclaim(t *testing.T) {
	s := attributing()
	s.SpanStart(1, 0, 0, 0)
	s.SpanStart(2, 0, 0, 0)
	if s.OpenSpans() != 2 {
		t.Fatalf("open = %d, want 2", s.OpenSpans())
	}
	s.SpanFinish(1, 10)
	s.SpanFinish(99, 10) // unknown: no-op
	if s.OpenSpans() != 1 {
		t.Fatalf("open = %d, want 1", s.OpenSpans())
	}
	if err := s.CheckConservation(missRecord(10)); err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("CheckConservation = %v, want leak error", err)
	}
	s.SpanFinish(2, 20)
	if err := s.CheckConservation(missRecord(10, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestSpanNilTracker checks that the nil tracer, and a tracer without
// attribution, accept every span call as a no-op, so call sites need no
// attribution-knob branches.
func TestSpanNilTracker(t *testing.T) {
	for _, s := range []*Tracer{nil, NewTracer(WithBuffer(8))} {
		if s.Attributing() {
			t.Fatal("tracer without attribution reports attributing")
		}
		s.SpanStart(1, 0, 0, 0)
		s.SpanEpoch(1, 1)
		s.SpanBegin(1, StageStall, 0, 0)
		s.SpanEnd(1, StageStall, 0, 10)
		s.SpanFinish(1, 10)
		if s.OpenSpans() != 0 || s.Recorded() != 0 {
			t.Fatal("tracer without attribution accumulated span state")
		}
		if s.Attribution() != nil {
			t.Fatal("tracer without attribution returned stats")
		}
		if err := s.CheckConservation(missRecord(10)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpanEventsOnlyWhenRecording checks that a tracer that records no
// events tiles spans without touching its event state, which is what lets
// attributed sharded runs share it.
func TestSpanEventsOnlyWhenRecording(t *testing.T) {
	s := attributing()
	if s.Enabled() {
		t.Fatal("zero tracer reports recording events")
	}
	s.SpanStart(5, 2, 0x40, 100)
	s.SpanBegin(5, StageStall, 0, 100)
	s.SpanEnd(5, StageStall, 0, 120)
	s.Dispatch(120, 2, 0, "Read", 0x40, 10, 0)
	s.SpanFinish(5, 130)
	if s.Recorded() != 0 || s.Events() != nil {
		t.Fatalf("tracer without events recorded %d events", s.Recorded())
	}
	if got := s.Attribution().TotalCycles(); got != 30 {
		t.Fatalf("tiled %d cycles, want 30", got)
	}
}

// TestSpanEvents checks the EvSpan emission contract the Chrome-trace and
// cctrace renderers rely on: begin markers, measured slices, and the finish
// event carrying the end-to-end latency.
func TestSpanEvents(t *testing.T) {
	tr := NewTracer()
	tr.EnableAttribution()
	tr.SpanStart(5, 2, 0x40, 100)
	tr.SpanBegin(5, StageStall, 0, 100)
	tr.SpanEnd(5, StageStall, 0, 120)
	tr.SpanFinish(5, 130)
	evs := tr.Events()
	var begins, slices, finishes int
	var sliced sim.Time
	for i := range evs {
		if evs[i].Kind != EvSpan {
			continue
		}
		if evs[i].A != 5 {
			t.Errorf("span event txn = %d, want 5", evs[i].A)
		}
		switch evs[i].B {
		case spanMarkBegin:
			begins++
		case spanMarkSlice:
			slices++
			sliced += evs[i].Dur
		case spanMarkFinish:
			finishes++
			if evs[i].Dur != 30 {
				t.Errorf("finish dur = %d, want 30", evs[i].Dur)
			}
		}
	}
	if begins != 1 || slices != 2 || finishes != 1 {
		t.Fatalf("begins=%d slices=%d finishes=%d, want 1/2/1 (fill residue emits a slice)",
			begins, slices, finishes)
	}
	if sliced != 30 {
		t.Fatalf("slice durations sum to %d, want 30 (slices must tile the lifetime)", sliced)
	}
}
