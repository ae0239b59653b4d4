// Command cclint runs the repo's custom static analyses (package lint)
// over the given package patterns. It is built purely on the standard
// library's go/ast and go/types; dependencies are resolved from build-cache
// export data via `go list -deps -export -json`.
//
// Usage:
//
//	cclint ./...
//	cclint -json ./internal/core
//
// Exit status is 1 when findings remain, 2 on loader errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ccnuma/internal/extract"
	"ccnuma/internal/lint"
	"ccnuma/internal/obs"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	dir := flag.String("dir", ".", "directory to resolve patterns from (must be inside the module)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cclint: %v\n", err)
		os.Exit(2)
	}
	findings := lint.Check(pkgs)

	// Staleness gate: when the run covers the protocol implementation, the
	// committed ccnuma-model artifact must still match what the extractor
	// derives from it — editing a handler without regenerating the model is
	// a finding like any other.
	for _, p := range pkgs {
		if p.ImportPath != "ccnuma/internal/core" && p.ImportPath != "ccnuma/internal/protocol" {
			continue
		}
		reason, err := extract.CheckStale(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cclint: model extraction: %v\n", err)
			os.Exit(2)
		}
		if reason != "" {
			findings = append(findings, lint.Finding{
				Pos: extract.ArtifactPath, Check: "model-stale", Message: reason,
			})
		}
		break
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// obs.LintReport declares this document's schema.
		payload := obs.LintReport{
			Packages: len(pkgs),
			Findings: make([]obs.LintFindingDoc, 0, len(findings)),
		}
		for _, f := range findings {
			payload.Findings = append(payload.Findings, obs.LintFindingDoc{
				Pos: f.Pos, Check: f.Check, Message: f.Message,
			})
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintf(os.Stderr, "cclint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		fmt.Fprintf(os.Stderr, "cclint: %d package(s), %d finding(s)\n", len(pkgs), len(findings))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
