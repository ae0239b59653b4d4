package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseSource builds the minimal Package (Fset + Files only) that the
// suppression collector and hygiene checker need.
func parseSource(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{ImportPath: "tmp", Dir: ".", Fset: fset, Files: []*ast.File{f}}
}

// TestCollectSuppressions pins the directive grammar: check and reason
// split off the directive, registration on both the directive's line and
// the line below, and tolerance of malformed variants (collected so the
// hygiene pass can flag them, never covering anything).
func TestCollectSuppressions(t *testing.T) {
	pkg := parseSource(t, `package tmp

//cclint:ignore rangemap iteration feeds a sorted set downstream
var A int

//cclint:ignore switch-enum
var B int

//cclint:ignore
var C int
`)
	set := collectSuppressions(pkg)
	if len(set.all) != 3 {
		t.Fatalf("collected %d suppressions, want 3", len(set.all))
	}
	full := set.all[0]
	if full.check != "rangemap" || full.reason != "iteration feeds a sorted set downstream" {
		t.Errorf("parsed suppression = %+v", full)
	}
	// Registered on its own line and the next one (the flagged statement).
	for _, line := range []int{3, 4} {
		if len(set.byLoc[locKey("s.go", line)]) == 0 {
			t.Errorf("suppression not registered on line %d", line)
		}
	}
	if reasonless := set.all[1]; reasonless.check != "switch-enum" || reasonless.reason != "" {
		t.Errorf("reasonless suppression = %+v", reasonless)
	}
	if bare := set.all[2]; bare.check != "" || bare.reason != "" {
		t.Errorf("bare suppression = %+v", bare)
	}

	// Only the complete directive covers, and only its own check name.
	if !set.covers(Finding{Pos: "s.go:4:1", Check: "rangemap"}) {
		t.Error("complete directive does not cover its line")
	}
	if set.covers(Finding{Pos: "s.go:4:1", Check: "sim-time"}) {
		t.Error("directive covered a different check")
	}
	if set.covers(Finding{Pos: "s.go:7:1", Check: "switch-enum"}) {
		t.Error("reasonless directive covered a finding")
	}
	if set.covers(Finding{Pos: "s.go:10:1", Check: "rangemap"}) {
		t.Error("bare directive covered a finding")
	}
}

// TestCommentHygieneFindings pins the hygiene pass over every malformed
// shape at once: reasonless and bare cclint directives, unknown check
// names, and //nolint without an explanation — while the complete
// directive and the explained nolint stay silent.
func TestCommentHygieneFindings(t *testing.T) {
	pkg := parseSource(t, `package tmp

//cclint:ignore rangemap justified and spelled correctly
var A int

//cclint:ignore switch-enum
var B int

//cclint:ignore
var C int

//cclint:ignore range-map typo of rangemap
var D int

var E int //nolint

var F int //nolint:gocritic

var G int //nolint:gocritic // shadow rule misfires on the engine idiom
`)
	set := collectSuppressions(pkg)
	findings := checkCommentHygiene(pkg, set)
	byCheck := map[string]int{}
	for _, f := range findings {
		byCheck[f.Check]++
	}
	if byCheck["ignore-reason"] != 2 {
		t.Errorf("ignore-reason findings = %d, want 2 (reasonless + bare): %v", byCheck["ignore-reason"], findings)
	}
	if byCheck["ignore-unknown"] != 1 {
		t.Errorf("ignore-unknown findings = %d, want 1: %v", byCheck["ignore-unknown"], findings)
	}
	if byCheck["nolint-reason"] != 2 {
		t.Errorf("nolint-reason findings = %d, want 2 (bare + unexplained): %v", byCheck["nolint-reason"], findings)
	}
	if total := byCheck["ignore-reason"] + byCheck["ignore-unknown"] + byCheck["nolint-reason"]; total != len(findings) {
		t.Errorf("unexpected extra findings: %v", findings)
	}
	for _, f := range findings {
		if f.Check == "ignore-unknown" && !strings.Contains(f.Message, "range-map") {
			t.Errorf("ignore-unknown does not name the bad check: %s", f)
		}
	}
}

// TestKnownChecksComplete parses this package's sources and requires the
// check name of every finding they build to be in the suppression
// vocabulary, so an analyzer cannot report a check it does not declare,
// which no directive could then suppress.
func TestKnownChecksComplete(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "finding" || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[1].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: finding built with a computed check name", fset.Position(call.Pos()))
				return true
			}
			check, _ := strconv.Unquote(lit.Value)
			seen[check] = true
			if !knownChecks[check] {
				t.Errorf("%s: check %q missing from knownChecks", fset.Position(call.Pos()), check)
			}
			return true
		})
	}
	if !seen["sched-closure"] || !seen["ignore-unknown"] {
		t.Fatalf("found checks %v, want the analyzers' and the hygiene pass's", seen)
	}
}
