// Package lint implements the repo's custom static analyses: protocol enum
// switches must be exhaustive or fail loudly, simulated-time packages must
// not consult wall-clock or global-randomness sources, callbacks handed to
// the discrete-event engine must do work, protocol enums must be printable,
// goroutines may be spawned only by internal/runner and the few other
// sanctioned concurrency homes, and lint suppressions must carry a reason.
//
// It is built only on the standard library's go/ast and go/types: packages
// are enumerated with `go list -deps -export -json`, dependencies are
// imported from the build cache's export data, and the analyzed packages
// themselves are parsed and type-checked from source.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given extra arguments and decodes
// the JSON package stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(out)
	var pkgs []*listedPkg
	for {
		p := &listedPkg{}
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w", strings.Join(args, " "), err)
	}
	return pkgs, nil
}

// Load type-checks the packages matched by patterns (run from dir, which
// must be inside the module) and returns them ready for analysis.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// Export data for every dependency (including in-module ones, so the
	// targets never need to be checked in topological order).
	deps, err := goList(dir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, d := range deps {
		if d.Export != "" {
			exports[d.ImportPath] = d.Export
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", t.ImportPath, t.Error.Err)
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", t.ImportPath, err)
		}
		out = append(out, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}
