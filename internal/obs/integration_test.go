// Integration: a real (small, deterministic) simulation produces a coherent
// event stream, a loadable Chrome trace, and a populated time series. The
// external test package lets us import machine without an import cycle.
package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// runTraced simulates the micro workload at test size with tracing and
// sampling attached.
func runTraced(t *testing.T) (*obs.Tracer, *obs.Sampler) {
	t.Helper()
	tr := obs.NewTracer(obs.WithBuffer(1 << 16))
	s := obs.NewSampler(1000)
	run4x2(t, "micro", "PPC", nil, tr, s)
	return tr, s
}

// run4x2 simulates app on the 4x2 machine at test size with the given
// architecture and instruments attached, returning the run's result.
func run4x2(t *testing.T, app, arch string, tune func(*config.Config), tr *obs.Tracer, s *obs.Sampler) *stats.Run {
	t.Helper()
	cfg, err := config.Base().WithArch(arch)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 1_000_000_000
	if tune != nil {
		tune(&cfg)
	}
	m, err := machine.NewTraced(cfg, app, tr)
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		m.AttachSampler(s)
	}
	w, err := workload.New(app, workload.SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.Run(m, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTracedRun(t *testing.T) {
	tr, s := runTraced(t)

	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("traced run recorded no events")
	}
	kinds := map[obs.EventKind]int{}
	lastAt := evs[0].At
	for i := range evs {
		ev := &evs[i]
		kinds[ev.Kind]++
		if ev.At < lastAt {
			t.Fatalf("event %d out of chronological order: %d after %d", i, ev.At, lastAt)
		}
		lastAt = ev.At
		if ev.Text() == "" {
			t.Fatalf("event %d renders empty", i)
		}
	}
	// Every part of the model must have spoken: dispatches, queue movements,
	// bus strobes, network traffic in both directions, directory accesses,
	// and cache transitions.
	for _, k := range []obs.EventKind{
		obs.EvDispatch, obs.EvEnqueue, obs.EvDequeue, obs.EvBusStrobe,
		obs.EvNetSend, obs.EvNetRecv, obs.EvDirRead, obs.EvDirWrite, obs.EvCache,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// Conservation: every enqueue is eventually dequeued (queues drain by
	// the end of a successful run).
	if kinds[obs.EvEnqueue] != kinds[obs.EvDequeue] {
		t.Errorf("enqueues %d != dequeues %d", kinds[obs.EvEnqueue], kinds[obs.EvDequeue])
	}
	// Each dispatch consumed exactly one queued work item.
	if kinds[obs.EvDispatch] != kinds[obs.EvDequeue] {
		t.Errorf("dispatches %d != dequeues %d", kinds[obs.EvDispatch], kinds[obs.EvDequeue])
	}
	// Network conservation: crossbar delivery loses nothing.
	if kinds[obs.EvNetSend] != kinds[obs.EvNetRecv] {
		t.Errorf("sends %d != recvs %d", kinds[obs.EvNetSend], kinds[obs.EvNetRecv])
	}

	// The trace must export as valid Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]interface{}); !ok {
		t.Fatal("chrome trace missing traceEvents array")
	}

	// The sampler must have probed at least once and seen activity.
	rows := s.Samples()
	if len(rows) == 0 {
		t.Fatal("sampler collected no rows")
	}
	anyUtil := false
	for i := range rows {
		r := &rows[i]
		if r.At <= 0 || r.Node < 0 || r.Node >= 4 {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
		if r.EngineUtilPct > 0 || r.BusDataUtilPct > 0 {
			anyUtil = true
		}
	}
	if !anyUtil {
		t.Error("no sample row shows any engine or bus activity")
	}
}

func TestTracedRunDeterministic(t *testing.T) {
	tr1, _ := runTraced(t)
	tr2, _ := runTraced(t)
	e1, e2 := tr1.Events(), tr2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("run 1 recorded %d events, run 2 %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs between identical runs:\n%s\n%s", i, e1[i].Text(), e2[i].Text())
		}
	}
}

// TestInstrumentStreamsPinned pins a digest of each instrument stream, so
// a refactor that reorders or rewords trace events, sample rows or
// attribution records fails here rather than only across two runs of the
// same build. The trace and CSV digests equal those of
// `cctrace -app fft -arch HWC -size test` stdout and of
// `ccsim -app ocean -arch PPC -nodes 4 -ppn 2 -size test -sample 1000`'s
// CSV. A deliberate model change updates them.
func TestInstrumentStreamsPinned(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %s, want %s", name, got, want)
		}
	}

	var text bytes.Buffer
	tr := obs.NewTracer(obs.WithBuffer(0), obs.WithSink(func(ev *obs.Event) {
		text.WriteString(ev.Text())
		text.WriteByte('\n')
	}))
	run4x2(t, "fft", "HWC", nil, tr, nil)
	check("fft/HWC trace text", digest(text.Bytes()), "125773e9a99c368bf7e9414f131aa681f3a4579e7a9f2f8d605c0d20322c5792")

	s := obs.NewSampler(1000)
	run4x2(t, "ocean", "PPC", nil, nil, s)
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	check("ocean/PPC sampler CSV", digest(csv.Bytes()), "2650fe0d316592622aaf6c916089f2a9e261a14dff98fb0ec7808ae37bb4cb78")

	r := run4x2(t, "fft", "HWC", func(c *config.Config) {
		*c = c.WithRobustness()
		c.Attribution = true
	}, nil, nil)
	doc, err := json.Marshal(obs.NewAttributionDoc(r))
	if err != nil {
		t.Fatal(err)
	}
	check("fft/HWC robust attribution", digest(doc), "9b979a6846f91e9600226efefa4cc85a2596280b786a3a7238ffc09c43550f40")

	// With attribution on, the trace also carries every span checkpoint;
	// the Chrome export of the same events equals the file
	// `ccsim -app fft -arch HWC -nodes 4 -ppn 2 -size test -attribution -trace F` writes.
	text.Reset()
	var evs []obs.Event
	tr = obs.NewTracer(obs.WithBuffer(0), obs.WithSink(func(ev *obs.Event) {
		text.WriteString(ev.Text())
		text.WriteByte('\n')
		evs = append(evs, *ev)
	}))
	run4x2(t, "fft", "HWC", func(c *config.Config) { c.Attribution = true }, tr, nil)
	if len(evs) != 18361 {
		t.Errorf("fft/HWC attributed trace has %d events, want 18361", len(evs))
	}
	check("fft/HWC attributed trace text", digest(text.Bytes()), "b9274bcca2880d401b5b9001240d78eeb8ae40ccb2b09e16c1a8fec04a506116")
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, evs); err != nil {
		t.Fatal(err)
	}
	check("fft/HWC attributed Chrome trace", digest(chrome.Bytes()), "f42258bf81eb0c58e6a6fdd78f13c93e5f8f0e411cca0fb69c6cc5ea0a5e2432")
}
