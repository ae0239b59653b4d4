package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/scenario"
	"ccnuma/internal/store"
)

const singleDoc = `{
 "schema": "ccnuma-scenario/v1",
 "name": "serve-single",
 "machine": {"nodes": 2, "procsPerNode": 2},
 "workload": {"app": "fft", "size": "test"}
}`

const sweepDoc = `{
 "schema": "ccnuma-scenario/v1",
 "name": "serve-sweep",
 "machine": {"nodes": 2, "procsPerNode": 2},
 "workload": {"app": "fft", "size": "test"},
 "sweep": {"param": "netlat", "values": [14, 50], "archs": ["2HWC", "2PPC"]}
}`

func testConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.StoreDir = filepath.Join(dir, "store")
	cfg.ComputeLog = filepath.Join(dir, "compute.log")
	cfg.Jobs = 2
	cfg.QueueDepth = 16
	cfg.CellRetries = 1
	cfg.RetryBackoff = time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	cfg.Out = io.Discard
	return cfg
}

func mustSpec(t *testing.T, doc string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.LoadBytes([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func computeLogLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(data))
}

func TestSubmitMemoizes(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	resp, err := s.Submit(mustSpec(t, singleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 || resp.Cells[0].Status != StatusComputed {
		t.Fatalf("first submit: %+v", resp.Cells)
	}
	if resp.Cells[0].ExecCycles <= 0 {
		t.Fatalf("computed cell has no exec cycles: %+v", resp.Cells[0])
	}
	first := resp.Cells[0]

	// Same experiment under a different name: the normalized cell must
	// content-address identically and be served from the store.
	renamed := strings.Replace(singleDoc, "serve-single", "other-name", 1)
	resp2, err := s.Submit(mustSpec(t, renamed))
	if err != nil {
		t.Fatal(err)
	}
	got := resp2.Cells[0]
	if got.Status != StatusHit || got.Fp != first.Fp || got.ExecCycles != first.ExecCycles {
		t.Fatalf("renamed resubmit not a hit: %+v vs %+v", got, first)
	}

	if lines := computeLogLines(t, cfg.ComputeLog); len(lines) != 1 || lines[0] != first.Fp {
		t.Fatalf("compute log = %v, want exactly one line %s", lines, first.Fp)
	}
}

func TestSweepCellsAndJournalRetired(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(mustSpec(t, sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 4 {
		t.Fatalf("sweep expanded to %d cells, want 4", len(resp.Cells))
	}
	seen := map[string]bool{}
	for _, c := range resp.Cells {
		if c.Status != StatusComputed {
			t.Fatalf("cell %+v not computed", c)
		}
		if seen[c.Fp] {
			t.Fatalf("duplicate cell fingerprint %s", c.Fp)
		}
		seen[c.Fp] = true
	}

	// A single-run submission of one grid point is a hit on the sweep's cell.
	cells, err := ExpandCells(mustSpec(t, sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	single := &scenario.Spec{
		SchemaName: scenario.Schema,
		Machine:    cells[0].Spec.Machine,
		Workload:   cells[0].Spec.Workload,
	}
	resp2, err := s.Submit(single)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cells[0].Status != StatusHit || resp2.Cells[0].Fp != cells[0].Fp {
		t.Fatalf("grid-point submit: %+v, want hit on %s", resp2.Cells[0], cells[0].Fp)
	}

	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The cleanly finished sweep must not be journaled as pending.
	st, rec, err := store.Open(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(rec.PendingSweeps) != 0 {
		t.Fatalf("finished sweep still pending: %+v", rec.PendingSweeps)
	}
	if rec.Objects != 4 || rec.Quarantined != 0 {
		t.Fatalf("store after drain: %+v", rec)
	}
}

func TestResumePendingSweepOnStartup(t *testing.T) {
	cfg := testConfig(t)
	spec := mustSpec(t, sweepDoc)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Journal an accepted-but-unserved sweep, as a crash after acceptance
	// would leave it.
	st, _, err := store.Open(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BeginSweep(fp, canon); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Recovery.PendingSweeps) != 1 {
		t.Fatalf("pending sweeps at startup: %+v", s.Recovery.PendingSweeps)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil { // waits for the background resume
		t.Fatal(err)
	}

	st2, rec, err := store.Open(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Objects != 4 || len(rec.PendingSweeps) != 0 {
		t.Fatalf("after resume: %+v", rec)
	}
}

func TestFailingCellClassifiedAndRetried(t *testing.T) {
	cfg := testConfig(t)
	cfg.CellRetries = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	// Canonical() validates documents, so a runtime cell failure needs a
	// cell built by hand: a size class the workload layer rejects. The cell
	// must fail cleanly — classified, retried, never crashing the server.
	bad := &Cell{Cell: &scenario.Cell{
		Spec: &scenario.Spec{
			SchemaName: scenario.Schema,
			Machine:    mustSpec(t, singleDoc).Machine,
			Workload:   scenario.Workload{App: "fft", Size: "bogus"},
		},
		Fp:    "00000000deadbeef",
		Canon: []byte("{}"),
	}}
	c := s.runCell(bad)
	if c.Status != StatusError || c.Failure == nil {
		t.Fatalf("bad cell: %+v", c)
	}
	if c.Failure.Class == "" || c.Failure.Message == "" {
		t.Fatalf("failure not machine-readable: %+v", c.Failure)
	}
	if c.Retries != 2 {
		t.Fatalf("transient-class failure retried %d times, want CellRetries=2", c.Retries)
	}
	s.mu.Lock()
	failed, retries := s.counters.CellsFailed, s.counters.CellRetries
	s.mu.Unlock()
	if failed != 1 || retries != 2 {
		t.Fatalf("counters: failed=%d retries=%d", failed, retries)
	}
}

func startHTTP(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s, "http://" + s.Addr()
}

func TestHTTPSubmitAndArtifact(t *testing.T) {
	_, base := startHTTP(t, testConfig(t))
	resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(singleDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Schema != ResponseSchema || len(sr.Cells) != 1 {
		t.Fatalf("response: %+v", sr)
	}

	art, err := http.Get(base + "/v1/artifact/" + sr.Cells[0].Fp)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Body.Close()
	if art.StatusCode != http.StatusOK {
		t.Fatalf("artifact: %s", art.Status)
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(art.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "ccnuma-run/v1" {
		t.Fatalf("artifact schema = %q", doc.Schema)
	}

	if miss, err := http.Get(base + "/v1/artifact/ffffffffffffffff"); err != nil {
		t.Fatal(err)
	} else {
		miss.Body.Close()
		if miss.StatusCode != http.StatusNotFound {
			t.Fatalf("absent artifact: %s", miss.Status)
		}
	}
}

// TestOversizedSweepRejectedBeforeExpansion posts a small document whose
// 1000 x 1000 grid would expand to a million cells: validation must refuse
// it with 400 before any cell is built, well within a second.
func TestOversizedSweepRejectedBeforeExpansion(t *testing.T) {
	_, base := startHTTP(t, testConfig(t))
	values := make([]string, 1000)
	archs := make([]string, 1000)
	for i := range values {
		values[i] = strconv.Itoa(14 + i)
		archs[i] = `"HWC"`
	}
	doc := `{"schema": "ccnuma-scenario/v1", "workload": {"app": "fft", "size": "test"},
 "sweep": {"param": "netlat", "values": [` + strings.Join(values, ",") + `], "archs": [` + strings.Join(archs, ",") + `]}}`
	start := time.Now()
	resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit") {
		t.Fatalf("%d-byte million-cell sweep: %s: %s", len(doc), resp.Status, body)
	}
	if elapsed > time.Second {
		t.Fatalf("rejection took %v, want under a second", elapsed)
	}
}

func TestSaturationRejectsAndReadyzFlips(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 4
	s, base := startHTTP(t, cfg)

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz idle = %d", got)
	}

	// Saturate the admission queue (as a burst of slow submissions would)
	// and hold it while probing.
	s.mu.Lock()
	s.queued = cfg.QueueDepth
	s.mu.Unlock()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz saturated = %d, want 503", got)
	}
	resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(singleDoc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %s: %s", resp.Status, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(body, []byte("queue")) {
		t.Fatalf("429 body not descriptive: %s", body)
	}

	// Capacity returns; the same submission is admitted.
	s.mu.Lock()
	s.queued = 0
	s.mu.Unlock()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after release = %d", got)
	}
	ok, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(singleDoc))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-release submit: %s", ok.Status)
	}

	s.mu.Lock()
	rejected := s.counters.Rejected
	s.mu.Unlock()
	if rejected != 1 {
		t.Fatalf("Rejected counter = %d", rejected)
	}
}

func TestDrainingRejectsSubmissions(t *testing.T) {
	s, base := startHTTP(t, testConfig(t))
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(singleDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %s, want 503", resp.Status)
	}
	if got, _ := http.Get(base + "/readyz"); got != nil {
		got.Body.Close()
		if got.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining readyz: %s", got.Status)
		}
	}
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
}

func TestStatuszReportsState(t *testing.T) {
	cfg := testConfig(t)
	cfg.SampleEvery = 1000
	s, base := startHTTP(t, cfg)
	if _, err := s.Submit(mustSpec(t, singleDoc)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "ccnuma-servestatus/v1" {
		t.Fatalf("statusz schema %q", doc.Schema)
	}
	if doc.Store.Objects != 1 || doc.Counters.CellsComputed != 1 {
		t.Fatalf("statusz: store=%+v counters=%+v", doc.Store, doc.Counters)
	}
	if doc.Recovery == nil {
		t.Fatal("statusz missing recovery report")
	}
	if len(doc.Samples) == 0 {
		t.Fatal("statusz has no sampler rows despite SampleEvery")
	}
}

func TestSubmitResponseDeterministicBytes(t *testing.T) {
	// Two fresh servers over fresh stores must publish byte-identical
	// artifacts for the same cell — the property that lets the torture
	// harness compare resumed artifacts against an uninterrupted baseline.
	var payloads [][]byte
	for i := 0; i < 2; i++ {
		cfg := testConfig(t)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Submit(mustSpec(t, singleDoc))
		if err != nil {
			t.Fatal(err)
		}
		payload, ok, err := s.store.Get(resp.Cells[0].Fp)
		if err != nil || !ok {
			t.Fatalf("artifact missing: ok=%v err=%v", ok, err)
		}
		payloads = append(payloads, payload)
		s.Shutdown()
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("artifacts for the same cell differ across independent servers")
	}
}

func TestRejectsFaultCampaigns(t *testing.T) {
	spec := mustSpec(t, singleDoc)
	spec.Faults = &scenario.FaultPlan{}
	if _, err := ExpandCells(spec); err == nil {
		t.Fatal("fault campaign accepted by serve")
	}
}
