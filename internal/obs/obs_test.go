package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ccnuma/internal/sim"
)

func TestDisabledTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Recorded() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer reports recorded events")
	}
	// Every recording method must be callable on the nil receiver.
	tr.Dispatch(1, 0, 0, "Read", 0x100, 10, 2)
	tr.Enqueue(1, 0, 0, QResp, 1, "Reply", 0x100)
	tr.Dequeue(1, 0, 0, QResp, 0, 0x100)
	tr.BusStrobe(1, 0, "Read", 0x100, 2)
	tr.NetSend(1, 0, 1, "ReadReq", 0x100, 2)
	tr.NetRecv(1, 0, 1, "ReadReq", 0x100)
	tr.DirAccess(1, 0, 0x100, false, true, "S")
	tr.Cache(1, 0, 1, 0x100, "install", "E")
}

func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Dispatch(1, 0, 0, "Read", 0x100, 10, 2)
		tr.Enqueue(1, 0, 0, QBus, 1, "Read", 0x100)
		tr.NetSend(1, 0, 1, "ReadReq", 0x100, 2)
		tr.DirAccess(1, 0, 0x100, true, false, "S")
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f per run, want 0", allocs)
	}
}

func TestEnabledTracerZeroAllocsSteadyState(t *testing.T) {
	tr := NewTracer(WithBuffer(64)) // ring pre-allocated; recording must not grow it
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Dispatch(1, 0, 0, "Read", 0x100, 10, 2)
		tr.BusStrobe(2, 0, "Read", 0x100, 1)
	})
	if allocs != 0 {
		t.Errorf("enabled tracer allocates %.1f per event pair in steady state, want 0", allocs)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(WithBuffer(8))
	for i := 0; i < 20; i++ {
		tr.BusStrobe(sim.Time(i), 0, "Read", uint64(i), 0)
	}
	if got := tr.Recorded(); got != 20 {
		t.Fatalf("Recorded() = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped() = %d, want 12", got)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events() len = %d, want 8", len(evs))
	}
	// The survivors must be the last 8 events, in chronological order.
	for i, ev := range evs {
		want := sim.Time(12 + i)
		if ev.At != want {
			t.Errorf("event %d: At = %d, want %d", i, ev.At, want)
		}
	}
}

func TestRingNoWraparound(t *testing.T) {
	tr := NewTracer(WithBuffer(16))
	for i := 0; i < 5; i++ {
		tr.BusStrobe(sim.Time(10*i), 0, "Read", uint64(i), 0)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("Events() len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.At != sim.Time(10*i) {
			t.Errorf("event %d out of order: At = %d", i, ev.At)
		}
	}
}

func TestSinkStreaming(t *testing.T) {
	var seen []Event
	tr := NewTracer(WithBuffer(0), WithSink(func(ev *Event) { seen = append(seen, *ev) }))
	tr.Dispatch(5, 1, 0, "Read", 0x200, 32, 4)
	tr.NetRecv(7, 0, 1, "ReadReq", 0x200)
	if tr.Events() != nil {
		t.Error("buffer disabled but Events() non-nil")
	}
	if len(seen) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(seen))
	}
	if seen[0].Kind != EvDispatch || seen[0].Dur != 32 || seen[0].A != 4 {
		t.Errorf("sink event 0 = %+v", seen[0])
	}
	if seen[1].Kind != EvNetRecv || seen[1].Node != 1 || seen[1].A != 0 {
		t.Errorf("sink event 1 = %+v", seen[1])
	}
}

func TestChromeTraceJSONValid(t *testing.T) {
	tr := NewTracer(WithBuffer(64))
	tr.Dispatch(100, 0, 1, "ReadReq", 0x3200, 80, 12)
	tr.Enqueue(90, 0, 1, QReq, 1, "ReadReq", 0x3200)
	tr.Dequeue(100, 0, 1, QReq, 0, 0x3200)
	tr.BusStrobe(110, 0, "Fetch", 0x3200, -1)
	tr.NetSend(120, 0, 3, "ReadReply", 0x3200, 5)
	tr.NetRecv(140, 0, 3, "ReadReply", 0x3200)
	tr.DirAccess(100, 0, 0x3200, false, true, "NoRemote")
	tr.DirAccess(115, 0, 0x3200, true, false, "SharedRemote")
	tr.Cache(150, 3, 2, 0x3200, "install", "S")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Pid  int32                  `json:"pid"`
			Tid  int32                  `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, instants, counters, meta int
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			meta++
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if spans != 1 {
		t.Errorf("spans = %d, want 1 (the dispatch)", spans)
	}
	if counters != 2 {
		t.Errorf("counter samples = %d, want 2 (enqueue+dequeue)", counters)
	}
	if instants != 8 {
		t.Errorf("instants = %d, want 8", instants)
	}
	// Metadata must name both processes and the distinct tracks.
	for _, want := range []string{"node 0", "node 3", "engine 1", "smp bus", "ni out", "ni in", "directory", "cpu 2"} {
		if !names[want] {
			t.Errorf("metadata missing track/process name %q", want)
		}
	}
	// Timestamp conversion: 100 cycles x 5 ns = 0.5 us.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Ts != 0.5 {
			t.Errorf("dispatch ts = %v us, want 0.5", e.Ts)
		}
	}
}

func TestEventText(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{At: 4273, Node: 3, Kind: EvBusStrobe, Name: "Read", Line: 0x3200, A: 1},
			"bus Read line=0x3200 src=1"},
		{Event{At: 4273, Node: 3, Kind: EvDispatch, Track: 0, Name: "Read", Line: 0x3200, Dur: 32},
			"dispatch e0 Read line=0x3200 occ=32 qdelay=0"},
		{Event{At: 4321, Node: 2, Kind: EvDirRead, Line: 0x3200, Name: "NoRemote"},
			"dir read line=0x3200 NoRemote (miss)"},
		{Event{At: 4321, Node: 2, Kind: EvDirRead, Line: 0x3200, Name: "Dirty", A: 1},
			"dir read line=0x3200 Dirty (hit)"},
		{Event{At: 4305, Node: 3, Kind: EvNetSend, Name: "ReadReq", Line: 0x3200, A: 2, B: 1},
			"send ReadReq line=0x3200 -> n2 (1 flits)"},
		{Event{At: 9, Node: 0, Kind: EvCache, Track: 1, Name: "install", Line: 0x80, Aux: "E"},
			"cpu1 install line=0x80 E"},
	}
	for _, c := range cases {
		got := c.ev.Text()
		if !strings.HasSuffix(got, c.want) {
			t.Errorf("Text() = %q, want suffix %q", got, c.want)
		}
		if !strings.Contains(got, "n"+itoa(int(c.ev.Node))+"]") {
			t.Errorf("Text() = %q missing node prefix", got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSamplerOutputs(t *testing.T) {
	s := NewSampler(5000)
	if s.Interval != 5000 {
		t.Fatalf("interval = %d", s.Interval)
	}
	s.Add(Sample{At: 5000, Node: 0, Engine: 0, EngineUtilPct: 29.04, RespQ: 1, BusAddrUtilPct: 3.68})
	s.Add(Sample{At: 5000, Node: 1, Engine: 0, EngineUtilPct: 97.72, EngineBusy: true, BusQ: 1})

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t,node,engine,engine_util_pct") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if cols := strings.Count(lines[0], ","); strings.Count(lines[1], ",") != cols {
		t.Errorf("row has %d commas, header %d", strings.Count(lines[1], ","), cols)
	}
	if !strings.Contains(lines[2], "97.72,1") {
		t.Errorf("busy row = %q", lines[2])
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalCycles int64    `json:"intervalCycles"`
		Samples        []Sample `json:"samples"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("sampler JSON invalid: %v", err)
	}
	if doc.IntervalCycles != 5000 || len(doc.Samples) != 2 {
		t.Fatalf("doc = interval %d, %d samples", doc.IntervalCycles, len(doc.Samples))
	}
	if doc.Samples[1].EngineUtilPct != 97.72 || !doc.Samples[1].EngineBusy {
		t.Errorf("sample round-trip mismatch: %+v", doc.Samples[1])
	}
}

func TestUtilPctClamps(t *testing.T) {
	s := NewSampler(100)
	if got := s.UtilPct(50); got != 50 {
		t.Errorf("UtilPct(50) = %v", got)
	}
	if got := s.UtilPct(250); got != 100 {
		t.Errorf("UtilPct(250) = %v, want clamp to 100", got)
	}
	if got := s.UtilPct(-10); got != 0 {
		t.Errorf("UtilPct(-10) = %v, want clamp to 0", got)
	}
}

type fakePayload struct{}

func (fakePayload) TraceName() string         { return "Fake" }
func (fakePayload) TraceLine() uint64         { return 0xabc }
func (fakePayload) SpanTxn() (uint64, uint32) { return 7, 2 }

func TestDescribePayload(t *testing.T) {
	name, line, txn, epoch := DescribePayload(fakePayload{})
	if name != "Fake" || line != 0xabc || txn != 7 || epoch != 2 {
		t.Errorf("DescribePayload = %q, %#x, %d, %d", name, line, txn, epoch)
	}
	name, line, txn, epoch = DescribePayload(42)
	if name != "" || line != 0 || txn != 0 || epoch != 0 {
		t.Errorf("opaque payload = %q, %#x, %d, %d, want zero values", name, line, txn, epoch)
	}
}
