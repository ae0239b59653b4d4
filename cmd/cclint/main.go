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
	for _, f := range findings {
		fmt.Println(f.String())
	}
	fmt.Fprintf(os.Stderr, "cclint: %d package(s), %d finding(s)\n", len(pkgs), len(findings))
	if len(findings) > 0 {
		os.Exit(1)
	}
}
