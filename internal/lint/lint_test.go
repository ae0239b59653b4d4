package lint

import (
	"strings"
	"testing"
)

// loadFixture type-checks the deliberately broken fixture package.
func loadFixture(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/badswitch")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("expected 1 fixture package, got %d", len(pkgs))
	}
	return pkgs
}

// TestFixtureFindings pins the complete set of diagnostics produced for
// the fixture, including that the justified suppression silences its
// switch and the reasonless directives are themselves flagged.
func TestFixtureFindings(t *testing.T) {
	findings := Check(loadFixture(t))
	byCheck := map[string][]Finding{}
	for _, f := range findings {
		byCheck[f.Check] = append(byCheck[f.Check], f)
	}

	swEnum := byCheck["switch-enum"]
	if len(swEnum) != 2 {
		t.Errorf("switch-enum findings = %d, want 2 (NonExhaustive + SilentDefault): %v", len(swEnum), swEnum)
	}
	foundMissing, foundDefault := false, false
	for _, f := range swEnum {
		if strings.Contains(f.Message, "protocol.MsgType") && strings.Contains(f.Message, "silently ignores") {
			foundMissing = true
		}
		if strings.Contains(f.Message, "protocol.Handler") && strings.Contains(f.Message, "must panic") {
			foundDefault = true
		}
	}
	if !foundMissing {
		t.Error("non-exhaustive MsgType switch was not flagged")
	}
	if !foundDefault {
		t.Error("silent Handler default was not flagged")
	}

	if n := len(byCheck["sched-noop"]); n != 1 {
		t.Errorf("sched-noop findings = %d, want 1", n)
	}
	if n := len(byCheck["nolint-reason"]); n != 1 {
		t.Errorf("nolint-reason findings = %d, want 1", n)
	}
	if n := len(byCheck["ignore-reason"]); n != 1 {
		t.Errorf("ignore-reason findings = %d, want 1", n)
	}
	if n := len(byCheck["ignore-unknown"]); n != 1 {
		t.Errorf("ignore-unknown findings = %d, want 1", n)
	} else if !strings.Contains(byCheck["ignore-unknown"][0].Message, "switchenum") {
		t.Errorf("ignore-unknown finding does not name the typo: %s", byCheck["ignore-unknown"][0])
	}

	// Exactly the findings above and nothing else — in particular the
	// justified suppression in Suppressed must not surface.
	total := len(swEnum) + len(byCheck["sched-noop"]) + len(byCheck["nolint-reason"]) +
		len(byCheck["ignore-reason"]) + len(byCheck["ignore-unknown"])
	if total != len(findings) {
		t.Errorf("unexpected extra findings: %v", findings)
	}
}

// TestRangeMapCheck pins the rangemap analysis on its fixture: the two
// order-dependent map iterations are flagged, and the sanctioned
// collect/count/element-write/delete shapes stay silent.
func TestRangeMapCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badrangemap")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []Finding
	for _, f := range Check(pkgs) {
		if f.Check != "rangemap" {
			t.Errorf("unexpected non-rangemap finding: %s", f)
			continue
		}
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("rangemap findings = %d, want 2: %v", len(got), got)
	}
	// The two flagged loops are DrainQueues (line 13) and PickVictim
	// (line 25); the silent shapes below them must produce nothing.
	for i, line := range []string{":13:", ":25:"} {
		if !strings.Contains(got[i].Pos, line) {
			t.Errorf("finding %d at %s, want line %s", i, got[i].Pos, line)
		}
	}
}

// TestRepoIsClean runs the full analyzer suite over the entire module and
// requires zero findings — the same gate make lint enforces in CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	for _, f := range Check(pkgs) {
		t.Errorf("finding: %s", f.String())
	}
}

// TestSuppressionRequiresReason covers the suppression matcher directly.
func TestSuppressionRequiresReason(t *testing.T) {
	set := &suppressionSet{byLoc: map[string][]*suppression{}}
	s := &suppression{file: "f.go", line: 10, check: "switch-enum"}
	set.byLoc[locKey("f.go", 10)] = []*suppression{s}
	f := Finding{Pos: "f.go:10:3", Check: "switch-enum"}
	if set.covers(f) {
		t.Error("reasonless suppression must not cover a finding")
	}
	s.reason = "justified"
	if !set.covers(f) {
		t.Error("complete suppression should cover the finding")
	}
	if set.covers(Finding{Pos: "f.go:11:1", Check: "switch-enum"}) {
		t.Error("suppression leaked to an unrelated line")
	}
}

// TestConfigLiteralCheck pins the config-literal analysis on its fixture:
// every locally pinned retry/timeout/backoff number is flagged, and the
// config-derived, non-numeric, and unrelated declarations stay silent.
func TestConfigLiteralCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badretry")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings := Check(pkgs)
	want := []string{"retryBudget", "nackDelay", "requestTimeout", "backoffMax", "localNackWindow"}
	if len(findings) != len(want) {
		t.Errorf("findings = %d, want %d: %v", len(findings), len(want), findings)
	}
	for _, name := range want {
		found := false
		for _, f := range findings {
			if f.Check == "config-literal" && strings.Contains(f.Message, name) {
				found = true
			}
		}
		if !found {
			t.Errorf("pinned value %s was not flagged: %v", name, findings)
		}
	}
	for _, f := range findings {
		for _, silent := range []string{"cfgRetry", "retryNote", "lineSize"} {
			if strings.Contains(f.Message, silent) {
				t.Errorf("allowed declaration %s was flagged: %s", silent, f)
			}
		}
	}
}

// TestConfigSchemaCheck pins the config-schema analysis on its fixture:
// untagged exported fields are flagged at the top level, through the `-`
// exclusion, and transitively through nested struct fields, while tagged,
// unexported, and unreachable declarations stay silent.
func TestConfigSchemaCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badconfig")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []Finding
	for _, f := range Check(pkgs) {
		if f.Check == "config-schema" {
			got = append(got, f)
		}
	}
	want := []string{"Config.Engines", "Config.Name", "Timing.HopCost"}
	if len(got) != len(want) {
		t.Errorf("config-schema findings = %d, want %d: %v", len(got), len(want), got)
	}
	for _, name := range want {
		found := false
		for _, f := range got {
			if strings.Contains(f.Message, name) {
				found = true
			}
		}
		if !found {
			t.Errorf("untagged field %s was not flagged: %v", name, got)
		}
	}
	for _, f := range got {
		for _, silent := range []string{"Config.Nodes", "Config.Net", "Timing.Latency", "Ignored", "hidden"} {
			if strings.Contains(f.Message, silent) {
				t.Errorf("allowed field %s was flagged: %s", silent, f)
			}
		}
	}
}

// TestNoGoroutineCheck pins the goroutine ban on its fixture: the go
// statement in badgo must be flagged, the sanctioned packages must stay
// exempt, and the workload handoff (cpu, pram), which switches to programs
// through prog.Coroutine, must not be exempt.
func TestNoGoroutineCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badgo")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []Finding
	for _, f := range Check(pkgs) {
		if f.Check == "no-goroutine" {
			got = append(got, f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("no-goroutine findings = %d, want 1: %v", len(got), got)
	}
	if !strings.Contains(got[0].Pos, "badgo.go") {
		t.Errorf("finding anchored at %s, want badgo.go", got[0].Pos)
	}
	for _, path := range []string{"ccnuma/internal/runner", "ccnuma/internal/serve", "ccnuma/internal/sim"} {
		if !goroutineAllowed[path] {
			t.Errorf("%s missing from the goroutine allowlist", path)
		}
	}
	for _, path := range []string{"ccnuma/internal/cpu", "ccnuma/internal/pram", "ccnuma/internal/prog"} {
		if goroutineAllowed[path] {
			t.Errorf("%s is on the goroutine allowlist; the workload handoff needs no go statement", path)
		}
	}
}

// TestSpanPairsCheck pins the span-pair analysis on its fixture: the
// unpaired SpanBegin is flagged, while paired, end-only, and non-constant
// stage calls stay silent.
func TestSpanPairsCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badspan")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []Finding
	for _, f := range Check(pkgs) {
		if f.Check == "span-pair" {
			got = append(got, f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("span-pair findings = %d, want 1: %v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "StageStall") {
		t.Errorf("finding names %q, want StageStall", got[0].Message)
	}
	for _, silent := range []string{"StageBackoff", "StageMem"} {
		if strings.Contains(got[0].Message, silent) {
			t.Errorf("allowed stage %s was flagged: %s", silent, got[0])
		}
	}
}

// TestSchedClosureCheck pins the sched-closure analysis on its fixture:
// the four literals scheduled on the engine or installed as a Done are
// flagged, and the bound and synchronous shapes stay silent.
func TestSchedClosureCheck(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/badclosure")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []Finding
	for _, f := range Check(pkgs) {
		if f.Check != "sched-closure" {
			t.Errorf("unexpected non-sched-closure finding: %s", f)
			continue
		}
		got = append(got, f)
	}
	if len(got) != 4 {
		t.Fatalf("sched-closure findings = %d, want 4: %v", len(got), got)
	}
	// The flagged literals are in ScheduleAt (line 25), ScheduleAfter
	// (line 30), InstallDone (line 35) and BuildTxn (line 40).
	for i, line := range []string{":25:", ":30:", ":35:", ":40:"} {
		if !strings.Contains(got[i].Pos, line) {
			t.Errorf("finding %d at %s, want line %s", i, got[i].Pos, line)
		}
	}
}
