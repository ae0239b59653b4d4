package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccnuma/internal/config"
)

// TestCanonicalFixpoint requires canonicalization to be a fixpoint of
// loading: Canonical() -> LoadBytes() -> Canonical() must reproduce the
// bytes exactly, for the default spec and for a spec using every section.
func TestCanonicalFixpoint(t *testing.T) {
	specs := map[string]*Spec{
		"default": Default(),
		"full":    fullSpec(t),
	}
	for name, s := range specs {
		first, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := LoadBytes(first)
		if err != nil {
			t.Fatalf("%s: reloading canonical bytes: %v", name, err)
		}
		second, err := back.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: canonicalization is not a fixpoint:\n first: %s\nsecond: %s", name, first, second)
		}
	}
}

// fullSpec exercises every schema section: heterogeneous machine, seeded
// workload, fault plan, sweep plan, and a cost override.
func fullSpec(t *testing.T) *Spec {
	t.Helper()
	s := Default()
	s.Name = "full"
	s.Machine.Nodes = 4
	s.Machine.ProcsPerNode = 2
	s.Machine.NodeArchs = []string{"HWC", "HWC", "2PPC", "2PPC"}
	s.Machine.Costs[config.OpSendHeader][config.PPC] = 33
	s.Machine = s.Machine.WithRobustness()
	s.Workload = Workload{App: "fft", Size: "test", Seed: 7}
	s.Faults = &FaultPlan{Schedules: 5, First: 2, Events: 3, BaseSeed: 11}
	s.Sweep = &SweepPlan{Param: "netlat", Values: []int{14, 50}, Archs: []string{"HWC", "2PPC"}}
	s.Jobs = 2
	return s
}

// TestFingerprintStableAcrossFieldOrder feeds the loader two documents
// that differ only in JSON field order and whitespace and requires
// identical fingerprints — and a third document that differs in substance
// to hash differently.
func TestFingerprintStableAcrossFieldOrder(t *testing.T) {
	a := `{
  "schema": "ccnuma-scenario/v1",
  "workload": {"app": "fft", "size": "test"},
  "machine": {"nodes": 4, "procsPerNode": 2}
}`
	b := `{"machine":{"procsPerNode":2,"nodes":4},"workload":{"size":"test","app":"fft"},"schema":"ccnuma-scenario/v1"}`
	c := `{"schema":"ccnuma-scenario/v1","workload":{"app":"fft","size":"test"},"machine":{"nodes":8,"procsPerNode":2}}`

	fp := func(doc string) string {
		s, err := LoadBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fa, fb, fc := fp(a), fp(b), fp(c)
	if fa != fb {
		t.Errorf("field order changed the fingerprint: %s vs %s", fa, fb)
	}
	if fa == fc {
		t.Errorf("substantively different specs share fingerprint %s", fa)
	}
	if len(fa) != 16 {
		t.Errorf("fingerprint %q is not 16 hex digits", fa)
	}
}

// ccsimFlags reproduces cmd/ccsim's scenario-relevant flag set on a fresh
// FlagSet so overlay behavior can be tested hermetically.
func ccsimFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	fs.String("app", "ocean", "")
	fs.String("arch", "HWC", "")
	fs.Int("engines", 0, "")
	fs.String("node-archs", "", "")
	fs.Int("nodes", 16, "")
	fs.Int("ppn", 4, "")
	fs.Int("line", 128, "")
	fs.Int("netlat", 14, "")
	fs.String("size", "base", "")
	fs.String("split", "local-remote", "")
	fs.String("arb", "paper", "")
	fs.String("topo", "crossbar", "")
	fs.Int("dircache", 8192, "")
	fs.Int64("seed", 0, "")
	fs.Bool("robust", false, "")
	return fs
}

// TestSpecPlusOverridesEqualsPureFlags pins the resolution rule the
// commands rely on: a spec file plus explicit override flags must resolve
// to exactly the scenario that pure flags produce (same fingerprint), for
// the Table 6 / Figure 6 style configurations the golden pins cover.
func TestSpecPlusOverridesEqualsPureFlags(t *testing.T) {
	// Pure flags: ccsim -app fft -arch 2PPC -nodes 4 -ppn 2 -size test -netlat 50
	pure := ccsimFlags()
	if err := pure.Parse([]string{"-app", "fft", "-arch", "2PPC", "-nodes", "4", "-ppn", "2", "-size", "test", "-netlat", "50"}); err != nil {
		t.Fatal(err)
	}
	fromFlags, err := FromFlags(pure, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Spec file declaring part of it, with the rest as override flags.
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	doc := `{
  "schema": "ccnuma-scenario/v1",
  "machine": {"nodes": 4, "procsPerNode": 2, "netLatency": 999},
  "workload": {"app": "fft", "size": "test"}
}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	over := ccsimFlags()
	if err := over.Parse([]string{"-arch", "2PPC", "-netlat", "50"}); err != nil {
		t.Fatal(err)
	}
	fromSpec, err := FromFlags(over, path, "", nil)
	if err != nil {
		t.Fatal(err)
	}

	fp1, err := fromFlags.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := fromSpec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		c1, _ := fromFlags.Canonical()
		c2, _ := fromSpec.Canonical()
		t.Errorf("spec+overrides != pure flags:\nflags: %s\n spec: %s", c1, c2)
	}
	if fromSpec.Machine.NetLatency != 50 {
		t.Errorf("explicit -netlat 50 did not override the spec's 999, got %d", fromSpec.Machine.NetLatency)
	}
}

// TestOverlayOnlySetRespectsSpec checks the other half of the rule: flag
// defaults must NOT leak over a loaded spec.
func TestOverlayOnlySetRespectsSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	doc := `{"schema": "ccnuma-scenario/v1", "machine": {"nodes": 8, "netLatency": 200}, "workload": {"app": "lu", "size": "test"}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := ccsimFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s, err := FromFlags(fs, path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machine.Nodes != 8 || s.Machine.NetLatency != 200 || s.Workload.App != "lu" {
		t.Errorf("flag defaults clobbered the spec: nodes=%d netlat=%d app=%s",
			s.Machine.Nodes, s.Machine.NetLatency, s.Workload.App)
	}
}

// TestLoadRejects pins the loader's failure modes, each with an error a
// user can act on.
func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		frag string
	}{
		{"missing schema", `{"workload": {"app": "fft", "size": "test"}}`, "schema"},
		{"wrong schema", `{"schema": "ccnuma-scenario/v2"}`, "ccnuma-scenario/v1"},
		{"unknown field", `{"schema": "ccnuma-scenario/v1", "wrkload": {}}`, "wrkload"},
		{"unknown machine field", `{"schema": "ccnuma-scenario/v1", "machine": {"nodez": 4}}`, "nodez"},
		{"removed recovery knob", `{"schema": "ccnuma-scenario/v1", "machine": {"queueDepth": 16}}`, "queueDepth"},
		{"removed data-path knob", `{"schema": "ccnuma-scenario/v1", "machine": {"directDataPath": true}}`, "directDataPath"},
		{"removed placement policy", `{"schema": "ccnuma-scenario/v1", "machine": {"placement": "explicit"}}`, "explicit"},
		{"bad cost row", `{"schema": "ccnuma-scenario/v1", "machine": {"costs": {"nope": [1,2,3]}}}`, "nope"},
		{"malformed", `{"schema": `, "unexpected"},
	}
	for _, tc := range cases {
		_, err := LoadBytes([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestValidateRejects covers spec-level validation beyond the machine.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		frag   string
	}{
		{"unknown app", func(s *Spec) { s.Workload.App = "doom" }, "workload.app"},
		{"unknown size", func(s *Spec) { s.Workload.Size = "jumbo" }, "workload.size"},
		{"negative schedules", func(s *Spec) { s.Faults = &FaultPlan{Schedules: -1} }, "faults.schedules"},
		{"negative first", func(s *Spec) { s.Faults = &FaultPlan{First: -2} }, "faults.first"},
		{"bad sweep param", func(s *Spec) { s.Sweep = &SweepPlan{Param: "zoom", Values: []int{1}, Archs: []string{"HWC"}} }, "sweep.param"},
		{"empty sweep values", func(s *Spec) { s.Sweep = &SweepPlan{Param: "netlat", Archs: []string{"HWC"}} }, "sweep.values"},
		{"empty sweep archs", func(s *Spec) { s.Sweep = &SweepPlan{Param: "netlat", Values: []int{1}} }, "sweep.archs"},
		{"bad sweep arch", func(s *Spec) { s.Sweep = &SweepPlan{Param: "netlat", Values: []int{1}, Archs: []string{"XY"}} }, "sweep.archs"},
		{"oversized sweep grid", func(s *Spec) {
			s.Sweep = &SweepPlan{Param: "netlat", Values: make([]int, 1000), Archs: make([]string, 1000)}
		}, "1000000 cells exceeds the limit of 4096"},
		{"negative jobs", func(s *Spec) { s.Jobs = -1 }, "jobs"},
		{"machine error", func(s *Spec) { s.Machine.LineSize = 96 }, "LineSize"},
		{"negative latency", func(s *Spec) { s.Machine.NetLatency = -5 }, "NetLatency"},
	}
	for _, tc := range cases {
		s := Default()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
	// "all" is a valid app (chaos campaigns fan out over the paper apps).
	s := Default()
	s.Workload.App = "all"
	if err := s.Validate(); err != nil {
		t.Errorf("app=all rejected: %v", err)
	}
}

// TestLoadArtifact round-trips a spec through an artifact's scenario field
// the way ccsim -replay does.
func TestLoadArtifact(t *testing.T) {
	s := fullSpec(t)
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	art := map[string]interface{}{
		"schema":              "ccnuma-run/v1",
		"scenario":            json.RawMessage(canon),
		"scenarioFingerprint": fp,
	}
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Errorf("replayed spec fingerprint %s != original %s", fp2, fp)
	}

	// An artifact without an embedded scenario is a clear error.
	bare := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(bare, []byte(`{"schema":"ccnuma-run/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(bare); err == nil || !strings.Contains(err.Error(), "embeds no scenario") {
		t.Errorf("artifact without scenario: err = %v", err)
	}
}

// TestApplySweepValue pins each sweep axis and its failure modes.
func TestApplySweepValue(t *testing.T) {
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	if err := ApplySweepValue(&cfg, "ppn", 4); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 2 || cfg.ProcsPerNode != 4 {
		t.Errorf("ppn sweep: %dx%d, want 2x4", cfg.Nodes, cfg.ProcsPerNode)
	}
	if err := ApplySweepValue(&cfg, "ppn", 3); err == nil {
		t.Error("ppn that does not divide total processors was accepted")
	}
	if err := ApplySweepValue(&cfg, "engines", 4); err != nil {
		t.Fatal(err)
	}
	if cfg.NumEngines != 4 || cfg.Split != config.SplitRegion {
		t.Error("engines sweep did not force the region split for >2 engines")
	}
	if err := ApplySweepValue(&cfg, "hoplat", 9); err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != config.TopoMesh2D || cfg.NetHopLatency != 9 {
		t.Error("hoplat sweep did not switch to the mesh topology")
	}
	if err := ApplySweepValue(&cfg, "warp", 1); err == nil {
		t.Error("unknown sweep parameter was accepted")
	}
}

// TestFlagOverrides checks the per-command override hook (ccchaos's -seed
// feeds the fault plan, not the workload).
func TestFlagOverrides(t *testing.T) {
	fs := flag.NewFlagSet("ccchaos", flag.ContinueOnError)
	fs.Int64("seed", 1, "")
	if err := fs.Parse([]string{"-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	overrides := map[string]FlagFunc{
		"seed": func(s *Spec, value string) error {
			s.EnsureFaults().BaseSeed = 42
			return nil
		},
	}
	s, err := FromFlags(fs, "", "", overrides)
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults == nil || s.Faults.BaseSeed != 42 {
		t.Errorf("override did not route -seed to faults.baseSeed: %+v", s.Faults)
	}
	if s.Workload.Seed != 0 {
		t.Errorf("override leaked into workload.seed: %d", s.Workload.Seed)
	}
}

// TestCheckSections pins which command runs which section: a command
// handed a section it would drop rejects it and names the command that
// runs it.
func TestCheckSections(t *testing.T) {
	sweep, err := Load("../../examples/scenarios/2hwc-vs-2ppc.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd           string
		sweep, faults bool
		want          string // empty: accepted
	}{
		{"ccsim", false, false, ""},
		{"ccsim", true, false, "ccsim does not run a sweep section (ccsweep does)"},
		{"ccsim", false, true, "ccsim does not run a faults section (ccchaos does)"},
		{"ccsweep", false, false, ""},
		{"ccsweep", true, false, ""},
		{"ccsweep", true, true, "ccsweep does not run a faults section (ccchaos does)"},
		{"ccchaos", false, false, ""},
		{"ccchaos", false, true, ""},
		{"ccchaos", true, true, "ccchaos does not run a sweep section (ccsweep does)"},
	} {
		s := Default()
		if tc.sweep {
			s.Sweep = sweep.Sweep
		}
		if tc.faults {
			s.EnsureFaults()
		}
		err := s.CheckSections(tc.cmd)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.HasSuffix(err.Error(), tc.want)) {
			t.Errorf("%s with sweep=%v faults=%v: err = %v, want %q", tc.cmd, tc.sweep, tc.faults, err, tc.want)
		}
	}
}
