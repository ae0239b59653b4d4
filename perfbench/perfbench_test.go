package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/chaos"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// checkMetrics requires got to hold exactly the listed metrics, with the
// listed units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s emitted but not listed in BENCHMARK.json", what, name)
		}
	}
}

// TestBenchmarkFileMatchesRegistry checks BENCHMARK.json against the
// workload registry, then runs one pass of every workload and one traced
// pass, which must emit exactly the listed metrics with nothing failed.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	b := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, registry has %s", got, want)
	}
	endToEndUnits := map[string]string{}
	for _, m := range b.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	perLayerUnits := map[string]string{}
	for _, m := range b.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for _, n := range append(append(listed, keys(endToEndUnits)...), keys(perLayerUnits)...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
	if len(endToEndUnits)+len(perLayerUnits) != len(b.EndToEnd)+len(b.PerLayer) {
		t.Errorf("a metric name is listed twice")
	}
	if _, ok := endToEndUnits["setup_s"]; !ok {
		t.Errorf("setup_s is not an end-to-end metric")
	}

	if testing.Short() {
		t.Skip("runs a pass of every workload")
	}
	for _, w := range workloads {
		r, err := run(w, options{seed: pinSeed}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d simulations failed: %v", w.name, r.failed, r.attempted, r.failures)
		}
		e2e := endToEnd(r)
		checkMetrics(t, w.name, e2e, endToEndUnits)
		for name, m := range e2e {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}

	w, _ := lookupWorkload("sharded")
	r, err := run(w, options{seed: pinSeed, traceDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("traced run: %v", r.failures)
	}
	layered := perLayer(r)
	checkMetrics(t, "traced sharded", layered, perLayerUnits)
	if sum := sumSelfFrac(layered); math.Abs(sum-1) > 0.01 {
		t.Errorf("self_frac shares sum to %v, want 1", sum)
	}
	if layered["shard.windows"].Value == 0 || layered["shard.speedup"].Value == 0 {
		t.Errorf("sharded workload reports no shard activity: %+v", layered)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sumSelfFrac(m map[string]metric) float64 {
	var sum float64
	for name, v := range m {
		if strings.HasSuffix(name, ".self_frac") {
			sum += v.Value
		}
	}
	return sum
}

// TestLayerTableAttributesEverySampleOnce profiles a few simulations, each
// followed by a calibration round, and checks that every sample lands in
// exactly one layer: no file matches two prefix rules, every rule names a
// known layer, the shares sum to 1, and the calibration rounds are left out.
func TestLayerTableAttributesEverySampleOnce(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, table := range []map[string]string{fileLayer, prefixLayer, pkgLayer} {
		for rule, l := range table {
			if !known[l] {
				t.Errorf("rule %s names unknown layer %s", rule, l)
			}
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	s := chaosSpec("radix", 1)
	for start := time.Now(); time.Since(start) < time.Second; {
		if c := simulate(&s, start, 1); c.err != nil {
			pprof.StopCPUProfile()
			t.Fatal(c.err)
		}
		calibrate()
	}
	pprof.StopCPUProfile()
	leaf, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf) == 0 {
		t.Fatal("profile has no samples")
	}
	for key, n := range leaf {
		if strings.HasSuffix(key, "/hostspeed.go") {
			t.Errorf("%d samples of the calibration rounds were attributed to layers", n)
		}
	}
	for key := range leaf {
		var matches []string
		for p := range prefixLayer {
			if strings.HasPrefix(key, p) {
				matches = append(matches, p)
			}
		}
		if len(matches) > 1 {
			t.Errorf("%s matches several prefix rules: %v", key, matches)
		}
		if layerOf(key) == "other" && strings.HasPrefix(key, "ccnuma/internal/sim/") {
			t.Errorf("engine file %s is unattributed", key)
		}
	}
	shares := selfShares(leaf)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["sim"] == 0 {
		t.Errorf("no samples attributed to the event engine: %v", shares)
	}
}

func TestSourceKey(t *testing.T) {
	for _, tc := range []struct{ fn, file, want string }{
		{"ccnuma/internal/sim.(*Engine).Step", "/src/repo/internal/sim/engine.go", "ccnuma/internal/sim/engine.go"},
		{"ccnuma/internal/cpu.(*Proc).Run.func1", "ccnuma@v0.0.0/internal/cpu/proc.go", "ccnuma/internal/cpu/proc.go"},
		{"runtime.chanrecv", "/usr/local/go/src/runtime/chan.go", "runtime/chan.go"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps/map.go", "internal/runtime/maps/map.go"},
		{"ccnuma/internal/runner.MapPartial[go.shape.struct { ccnuma/internal/x.y int }]", "runner.go", "ccnuma/internal/runner/runner.go"},
		{"", "", "?"},
	} {
		if got := sourceKey(tc.fn, tc.file); got != tc.want {
			t.Errorf("sourceKey(%q, %q) = %q, want %q", tc.fn, tc.file, got, tc.want)
		}
	}
}

// TestChaosSweepMatchesCampaign runs a reduced chaos sweep both through the
// benchmark and through chaos.Campaign, for three seeds, and requires the
// same execution time for every schedule.
func TestChaosSweepMatchesCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs chaos campaigns")
	}
	apps := []appSchedules{{"fft", 4}, {"ocean", 4}, {"radix", 2}}
	line := regexp.MustCompile(`(?m)^(\S+)\s+seed=(\d+) ok: .* exec=(\d+) cycles`)
	for _, seed := range []int64{1, 2, 3} {
		want := map[string]string{}
		for _, a := range apps {
			var out bytes.Buffer
			pilot := chaosSpec(a.app, seed)
			c := &chaos.Campaign{
				Cfg: pilot.cfg, Size: pilot.size, SizeName: "test",
				Schedules: a.n, Events: 2 + pilot.cfg.Nodes, BaseSeed: seed,
				Jobs: jobs, Out: &out,
			}
			if failed, err := c.RunApp(a.app); err != nil || failed != 0 {
				t.Fatalf("campaign %s seed %d: %d failed, %v", a.app, seed, failed, err)
			}
			for _, m := range line.FindAllStringSubmatch(out.String(), -1) {
				s, _ := strconv.ParseInt(m[2], 10, 64)
				want[m[1]+"/"+strconv.FormatInt(s-seed, 10)] = m[3]
			}
		}
		w := &benchWorkload{name: "chaos-test", pass: chaosPass(apps)}
		p := runPass(w, seed, time.Now(), nil, 0)
		got := 0
		for _, c := range p.cells {
			if c.err != nil {
				t.Errorf("seed %d %s: %v", seed, c.name, c.err)
			}
			if strings.HasPrefix(c.name, "pilot/") {
				continue
			}
			got++
			if e := strconv.FormatInt(int64(c.exec), 10); want[c.name] != e {
				t.Errorf("seed %d %s: exec %s, campaign %q", seed, c.name, e, want[c.name])
			}
		}
		if got != len(want) || got != 10 {
			t.Errorf("seed %d: benchmark ran %d schedules, campaign %d", seed, got, len(want))
		}
	}
}

// TestCheckerFailsMismatches covers the cross-cell checks: a pin mismatch,
// a sharded run that differs from its twin, and a pass that differs from
// the first.
func TestCheckerFailsMismatches(t *testing.T) {
	cells := func(d1, d2 string) []cell {
		return []cell{
			{name: "a", exec: 10, digest: d1, reference: true},
			{name: "a/shards2", exec: 10, digest: d2, twin: "a"},
		}
	}
	ch := &checker{pins: map[string]pin{"a": {10, "x"}, "a/shards2": {10, "x"}}}
	first := cells("x", "x")
	ch.check(first)
	for _, c := range first {
		if c.err != nil {
			t.Fatalf("matching pass failed: %s: %v", c.name, c.err)
		}
	}
	ch.pins = nil // later passes at another seed: twin and first-pass checks only
	twinBad := cells("x", "y")
	ch.check(twinBad)
	if twinBad[1].err == nil {
		t.Error("sharded run that differs from its twin passed")
	}
	drift := cells("z", "z")
	ch.check(drift)
	if drift[0].err == nil || drift[1].err == nil {
		t.Error("pass that differs from the first passed")
	}
	pinned := &checker{pins: map[string]pin{"a": {11, "x"}}}
	bad := cells("x", "x")
	pinned.check(bad)
	if bad[0].err == nil || bad[1].err == nil {
		t.Error("pin mismatch or missing pin passed")
	}
}
