package serve

// The kill-torture harness: a real ccserved process (this test binary
// re-executed with CCSERVED_HELPER=1) is SIGKILLed mid-sweep, restarted,
// and killed again, for at least 25 seeded cycles, until the sweep
// completes. After every restart and at the end it asserts the crash-
// safety contract:
//
//   - never corrupt: recovery quarantines nothing after a pure kill;
//   - never recompute: each cell fingerprint appears at most once in the
//     compute log across ALL process generations, and a final submit of
//     the full sweep is 100% store hits;
//   - byte-identical: every artifact that survived the torture equals,
//     byte for byte, the artifact an uninterrupted server produces.
//
// SIGKILL cannot be trapped, so every on-disk state the torture reaches
// is one the store's recovery pass genuinely has to handle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ccnuma/internal/scenario"
)

func TestMain(m *testing.M) {
	if os.Getenv("CCSERVED_HELPER") == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

// helperMain is the ccserved process under torture: start serving on an
// ephemeral port, publish the address atomically, and run until killed.
func helperMain() {
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.StoreDir = os.Getenv("CCSERVED_STORE")
	cfg.ComputeLog = os.Getenv("CCSERVED_COMPUTELOG")
	cfg.Jobs = 2
	cfg.QueueDepth = 256
	cfg.Out = io.Discard
	s, err := New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if _, err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	addrFile := os.Getenv("CCSERVED_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(s.Addr()), 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	select {} // live until SIGKILL
}

// tortureSweep is sized so that dozens of kill cycles each catch the
// server mid-progress: 40 cells at a few ms each.
const tortureSweep = `{
 "schema": "ccnuma-scenario/v1",
 "name": "kill-torture",
 "machine": {"nodes": 2, "procsPerNode": 2},
 "workload": {"app": "fft", "size": "test"},
 "sweep": {
  "param": "netlat",
  "values": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40],
  "archs": ["2HWC", "2PPC"]
 }
}`

// minTortureKills can be raised via CCSERVED_TORTURE_KILLS (the
// torture-smoke make target uses the default).
const minTortureKills = 25

type helper struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
}

func startHelper(t *testing.T, dir string, round int) *helper {
	t.Helper()
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d", round))
	h := &helper{cmd: exec.Command(os.Args[0])}
	h.cmd.Env = append(os.Environ(),
		"CCSERVED_HELPER=1",
		"CCSERVED_STORE="+filepath.Join(dir, "store"),
		"CCSERVED_COMPUTELOG="+filepath.Join(dir, "compute.log"),
		"CCSERVED_ADDRFILE="+addrFile,
	)
	h.cmd.Stderr = &h.stderr
	if err := h.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			h.addr = string(data)
			return h
		}
		if h.cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("round %d: helper never published an address\nstderr: %s", round, h.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the helper and reaps it — the crash the store must absorb.
func (h *helper) kill() {
	syscall.Kill(h.cmd.Process.Pid, syscall.SIGKILL)
	h.cmd.Wait()
}

func (h *helper) statusz(t *testing.T) statusDoc {
	t.Helper()
	resp, err := http.Get("http://" + h.addr + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v\nstderr: %s", err, h.stderr.String())
	}
	defer resp.Body.Close()
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// submitAsync fires the sweep at the helper without waiting: the response
// usually dies with the process. Submitting every round also covers the
// case where an early kill beat the sweep's journal acceptance.
func (h *helper) submitAsync() {
	addr := h.addr
	go func() {
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Post("http://"+addr+"/v1/submit", "application/json",
			strings.NewReader(tortureSweep))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
}

// expectedArtifacts computes the uninterrupted baseline in-process: every
// cell's byte-exact artifact from a fresh server over a fresh store. It
// also reports the measured wall time per cell, which calibrates the kill
// schedule to the build (race-instrumented binaries are ~10x slower).
func expectedArtifacts(t *testing.T) (map[string][]byte, time.Duration) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.StoreDir = filepath.Join(t.TempDir(), "baseline-store")
	cfg.Jobs = 2 // match the helper so per-cell wall time transfers
	cfg.Out = io.Discard
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	spec, err := scenario.LoadBytes([]byte(tortureSweep))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	perCell := time.Since(start) / time.Duration(len(resp.Cells))
	if perCell < time.Millisecond {
		perCell = time.Millisecond
	}
	want := make(map[string][]byte, len(resp.Cells))
	for _, c := range resp.Cells {
		if c.Status != StatusComputed {
			t.Fatalf("baseline cell %+v not computed", c)
		}
		payload, ok, err := s.store.Get(c.Fp)
		if err != nil || !ok {
			t.Fatalf("baseline artifact %s: ok=%v err=%v", c.Fp, ok, err)
		}
		want[c.Fp] = payload
	}
	return want, perCell
}

func TestKillTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("kill torture skipped in -short mode")
	}
	minKills := minTortureKills
	if v := os.Getenv("CCSERVED_TORTURE_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CCSERVED_TORTURE_KILLS=%q: %v", v, err)
		}
		minKills = n
	}

	want, perCell := expectedArtifacts(t)
	dir := t.TempDir()
	objectsDir := filepath.Join(dir, "store", "objects")
	countPresent := func() int {
		n := 0
		for fp := range want {
			if _, err := os.Stat(filepath.Join(objectsDir, fp+".obj")); err == nil {
				n++
			}
		}
		return n
	}

	// Seeded: the kill schedule is reproducible for a given seed and
	// build. The delay window scales with measured per-cell time so most
	// rounds die mid-sweep with a couple of cells landed; stalled rounds
	// (kill too early for this machine's process-startup cost) widen the
	// window until progress resumes.
	rng := rand.New(rand.NewSource(1))
	kills, scale, stalled := 0, 1.0, 0
	for round := 0; kills < minKills || countPresent() < len(want); round++ {
		if round > minKills*8 {
			t.Fatalf("torture not converging: %d kills, %d/%d cells after %d rounds",
				kills, countPresent(), len(want), round)
		}
		before := countPresent()
		h := startHelper(t, dir, round)
		// Recovery after a pure kill must never quarantine: quarantine
		// would mean the atomic-write protocol published torn bytes.
		doc := h.statusz(t)
		if doc.Recovery.Quarantined != 0 {
			h.kill()
			t.Fatalf("round %d: recovery quarantined %d objects after SIGKILL", round, doc.Recovery.Quarantined)
		}
		h.submitAsync()
		delay := time.Duration(scale * (0.5 + 3*rng.Float64()) * float64(perCell))
		if max := 2 * time.Second; delay > max {
			delay = max
		}
		time.Sleep(delay)
		h.kill()
		kills++
		if countPresent() == before && before < len(want) {
			if stalled++; stalled >= 3 {
				scale, stalled = scale*1.5, 0
			}
		} else {
			stalled = 0
			if scale > 1 {
				scale *= 0.8
			}
		}
	}
	t.Logf("torture: %d kills until sweep complete (per-cell %v)", kills, perCell)

	// Final generation: everything must now be served from the store.
	h := startHelper(t, dir, -1)
	defer h.kill()
	doc := h.statusz(t)
	if doc.Recovery.Quarantined != 0 {
		t.Fatalf("final recovery quarantined %d objects", doc.Recovery.Quarantined)
	}
	resp, err := http.Post("http://"+h.addr+"/v1/submit", "application/json",
		strings.NewReader(tortureSweep))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != len(want) {
		t.Fatalf("final submit returned %d cells, want %d", len(sr.Cells), len(want))
	}
	for _, c := range sr.Cells {
		if c.Status != StatusHit {
			t.Errorf("cell %s status %q after torture, want hit (recompute!)", c.Fp, c.Status)
		}
	}

	// Byte-identical: every tortured artifact equals the uninterrupted one.
	for fp, expect := range want {
		ar, err := http.Get("http://" + h.addr + "/v1/artifact/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(ar.Body)
		ar.Body.Close()
		if err != nil || ar.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s: %s err=%v", fp, ar.Status, err)
		}
		if !bytes.Equal(got, expect) {
			t.Errorf("artifact %s differs from uninterrupted baseline (%d vs %d bytes)", fp, len(got), len(expect))
		}
	}

	// Zero recompute, audited: across every process generation, no cell
	// fingerprint was computed twice. (A fingerprint may appear zero times
	// — killed between publish and audit append — but never twice.)
	logData, err := os.ReadFile(filepath.Join(dir, "compute.log"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(string(logData), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, known := want[line]; !known {
			// A torn final line from a kill mid-append is legal; a complete
			// line naming an unknown fingerprint is not.
			if len(line) == 16 {
				t.Errorf("compute log names unknown fingerprint %q", line)
			}
			continue
		}
		counts[line]++
	}
	for fp, n := range counts {
		if n > 1 {
			t.Errorf("cell %s computed %d times (must be at most once)", fp, n)
		}
	}
	t.Logf("torture: %d/%d cells computed exactly once, rest pre-kill losses recovered as hits",
		len(counts), len(want))
}
