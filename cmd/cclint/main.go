// Command cclint runs the repo's custom static analyses (package lint)
// over the given package patterns. It is built purely on the standard
// library's go/ast and go/types; dependencies are resolved from build-cache
// export data via `go list -deps -export -json`.
//
// Usage:
//
//	cclint ./...
//	cclint ./internal/core
//
// Exit status is 1 when findings remain, 2 on loader errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"ccnuma/internal/extract"
	"ccnuma/internal/lint"
)

func main() {
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

	for _, f := range findings {
		fmt.Println(f.String())
	}
	fmt.Fprintf(os.Stderr, "cclint: %d package(s), %d finding(s)\n", len(pkgs), len(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}
