package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// Finding is one lint diagnostic.
type Finding struct {
	Pos     string `json:"pos"` // file:line:col
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
}

// enumTargets lists the protocol-state enums whose switches must be
// exhaustive or fail loudly, keyed by defining package import path.
var enumTargets = map[string][]string{
	"ccnuma/internal/protocol":  {"MsgType", "Handler", "StallKind"},
	"ccnuma/internal/cache":     {"State"},
	"ccnuma/internal/directory": {"State"},
	"ccnuma/internal/smpbus":    {"Kind", "Status", "SnoopResult"},
}

// simPackages are the simulated-time packages where wall-clock time and
// global randomness are forbidden (they would make runs irreproducible).
var simPackages = map[string]bool{
	"ccnuma/internal/sim":          true,
	"ccnuma/internal/smpbus":       true,
	"ccnuma/internal/core":         true,
	"ccnuma/internal/cpu":          true,
	"ccnuma/internal/directory":    true,
	"ccnuma/internal/interconnect": true,
	"ccnuma/internal/fault":        true,
	"ccnuma/internal/machine":      true,
	"ccnuma/internal/protocol":     true,
	"ccnuma/internal/memaddr":      true,
	"ccnuma/internal/verify":       true,
}

// retryPackages are the recovery-path packages whose retry/timeout/backoff
// tuning must come from internal/config: the preset lives there as named
// constants, switched on as a whole by Config.Robust, so a constant pinned
// locally would hide tuning from the one place that states it and could
// escape the switch that keeps the base configuration cycle-identical. The
// testdata entry is the lint suite's own fixture (go tooling never loads
// testdata via ./...).
var retryPackages = map[string]bool{
	"ccnuma/internal/core":                       true,
	"ccnuma/internal/cpu":                        true,
	"ccnuma/internal/interconnect":               true,
	"ccnuma/internal/lint/testdata/src/badretry": true,
}

// retryNamePat matches declarations that name recovery tuning values.
var retryNamePat = regexp.MustCompile(`(?i)retry|timeout|backoff|nack`)

// rangeMapPackages are the simulation-affecting packages where iterating
// a map with order-dependent effects is forbidden: Go randomizes map
// iteration order, so any such loop makes runs irreproducible (the same
// class of bug as wall-clock reads, but quieter — it only shows up as
// diverging event orders). Loops whose bodies are order-insensitive
// (key collection for sorting, deletes, counting) are allowed. The
// testdata entry is the lint suite's own fixture.
var rangeMapPackages = map[string]bool{
	"ccnuma/internal/sim":                           true,
	"ccnuma/internal/smpbus":                        true,
	"ccnuma/internal/core":                          true,
	"ccnuma/internal/cpu":                           true,
	"ccnuma/internal/directory":                     true,
	"ccnuma/internal/interconnect":                  true,
	"ccnuma/internal/machine":                       true,
	"ccnuma/internal/protocol":                      true,
	"ccnuma/internal/stats":                         true,
	"ccnuma/internal/lint/testdata/src/badrangemap": true,
}

// schedClosurePackages are the packages whose scheduled callbacks must be
// bound once to a long-lived object: a function literal that captures
// variables allocates each time it is evaluated, so one scheduled or
// installed per miss brings back the per-miss allocations the allocation
// tests pin only for the streams they run (DESIGN §11.5). The testdata
// entry is the lint suite's own fixture.
var schedClosurePackages = map[string]bool{
	"ccnuma/internal/core":                         true,
	"ccnuma/internal/interconnect":                 true,
	"ccnuma/internal/smpbus":                       true,
	"ccnuma/internal/lint/testdata/src/badclosure": true,
}

// configSchemaPackages are the packages whose Config struct feeds the
// ccnuma-scenario/v1 schema: every exported field must carry a json tag,
// or a knob silently becomes unrepresentable in scenario files and
// invisible to `ccsim -replay`. The testdata entry is the lint suite's own
// fixture.
var configSchemaPackages = map[string]bool{
	"ccnuma/internal/config":                      true,
	"ccnuma/internal/lint/testdata/src/badconfig": true,
}

// goroutineAllowed lists the only packages that may contain a go
// statement: the worker pool itself (the single sanctioned home of
// concurrency), the host-side daemon, and the shard scheduler, whose
// barrier protocol carries its own determinism proof (serial (time, seq)
// order is reproduced exactly; see DESIGN.md §16). The workload handoff
// needs none: programs run as prog.Coroutine coroutines that switch
// directly with the engine. Everywhere else — model code, experiment
// drivers, tools — a go statement breaks the determinism argument: results
// must be committed on one goroutine in a fixed order.
var goroutineAllowed = map[string]bool{
	"ccnuma/internal/runner": true,
	"ccnuma/internal/serve":  true, // host-side daemon: HTTP serving + sweep resume
	"ccnuma/internal/sim":    true, // shard scheduler: barrier-synchronized workers
}

// bannedTimeFuncs are the wall-clock entry points of package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// analyzers are the analyses Check runs over each package, each with the
// check names its findings carry. Those names are what a cclint:ignore
// directive may suppress (knownChecks).
var analyzers = []struct {
	checks []string
	run    func(*Package) []Finding
}{
	{[]string{"switch-enum"}, checkEnumSwitches},
	{[]string{"sim-time", "sim-rand"}, checkSimDeterminism},
	{[]string{"sched-noop"}, checkSchedNoop},
	{[]string{"sched-closure"}, checkSchedClosure},
	{[]string{"enum-string"}, checkEnumStrings},
	{[]string{"config-literal"}, checkConfigLiterals},
	{[]string{"config-schema"}, checkConfigSchema},
	{[]string{"no-goroutine"}, checkNoGoroutines},
	{[]string{"span-pair"}, checkSpanPairs},
	{[]string{"rangemap"}, checkRangeMaps},
}

// Check runs every analysis over the loaded packages and returns the
// surviving findings (suppressions with a reason are honored; suppressions
// without one become findings themselves).
func Check(pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		for _, a := range analyzers {
			for _, f := range a.run(pkg) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
		out = append(out, checkCommentHygiene(pkg, sup)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Check < out[j].Check
	})
	return out
}

func (p *Package) finding(pos token.Pos, check, format string, args ...interface{}) Finding {
	return Finding{
		Pos:     p.Fset.Position(pos).String(),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// targetEnum resolves a type to (named enum type, true) when it is one of
// the lint-target enums.
func targetEnum(t types.Type) (*types.Named, bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, false
	}
	for _, name := range enumTargets[named.Obj().Pkg().Path()] {
		if named.Obj().Name() == name {
			return named, true
		}
	}
	return nil, false
}

// enumMembers returns the constants of the enum declared in its defining
// package, keyed by exact constant value. Unexported members are included
// only when the switch lives in the defining package (other packages
// cannot name them). Members sharing a value collapse to one entry.
func enumMembers(named *types.Named, fromPkg *types.Package) map[string][]string {
	defPkg := named.Obj().Pkg()
	members := map[string][]string{}
	scope := defPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !c.Exported() && defPkg != fromPkg {
			continue
		}
		key := c.Val().ExactString()
		members[key] = append(members[key], c.Name())
	}
	return members
}

// checkEnumSwitches enforces the exhaustiveness rule: every switch over a
// lint-target enum either covers all members or has a default that panics.
// String methods are the one shape where a returning default is legal (it
// is the formatter's fallback for corrupt values), but they still may not
// silently omit members without a default.
func checkEnumSwitches(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		// Ranges of String methods: their default clauses may return a
		// formatted fallback instead of panicking.
		type posRange struct{ lo, hi token.Pos }
		var stringFns []posRange
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "String" && fd.Body != nil {
				stringFns = append(stringFns, posRange{fd.Body.Lbrace, fd.Body.Rbrace})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			node, ok := n.(*ast.SwitchStmt)
			if !ok || node.Tag == nil {
				return true
			}
			tv, ok := pkg.Info.Types[node.Tag]
			if !ok {
				return true
			}
			named, ok := targetEnum(tv.Type)
			if !ok {
				return true
			}
			inString := false
			for _, r := range stringFns {
				if node.Switch > r.lo && node.Switch < r.hi {
					inString = true
				}
			}
			out = append(out, auditEnumSwitch(pkg, node, named, inString)...)
			return true
		})
	}
	return out
}

// auditEnumSwitch inspects one switch over a target enum.
func auditEnumSwitch(pkg *Package, sw *ast.SwitchStmt, named *types.Named, inString bool) []Finding {
	members := enumMembers(named, pkg.Types)
	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pkg.Info.Types[expr]
			if !ok || tv.Value == nil {
				// Non-constant case (e.g. a variable): treat the switch as
				// dynamic and give up on coverage, requiring a default.
				continue
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	var missing []string
	for val, names := range members {
		if !covered[val] {
			missing = append(missing, names[0])
		}
	}
	sort.Strings(missing)
	enum := named.Obj().Pkg().Name() + "." + named.Obj().Name()
	var out []Finding
	switch {
	case defaultClause == nil && len(missing) > 0:
		out = append(out, pkg.finding(sw.Switch, "switch-enum",
			"switch over %s silently ignores %s; enumerate them or add a panicking default",
			enum, strings.Join(missing, ", ")))
	case defaultClause != nil && !inString && !bodyPanics(defaultClause.Body):
		out = append(out, pkg.finding(defaultClause.Case, "switch-enum",
			"default clause of a %s switch must panic (silent fallthroughs hide unhandled protocol states)",
			enum))
	}
	return out
}

// bodyPanics reports whether the statement list (recursively) contains a
// call to the builtin panic.
func bodyPanics(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// checkSimDeterminism flags wall-clock and global-randomness use inside
// simulated-time packages.
func checkSimDeterminism(pkg *Package) []Finding {
	if !simPackages[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	for ident, obj := range pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if bannedTimeFuncs[fn.Name()] {
				out = append(out, pkg.finding(ident.Pos(), "sim-time",
					"time.%s reads the wall clock; simulated-time code must use sim.Engine time", fn.Name()))
			}
		case "math/rand", "math/rand/v2":
			if fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewPCG" &&
				fn.Type().(*types.Signature).Recv() == nil {
				out = append(out, pkg.finding(ident.Pos(), "sim-rand",
					"rand.%s uses the global, non-reproducible source; construct a seeded *rand.Rand", fn.Name()))
			}
		}
	}
	return out
}

// scheduledLiteral returns the function literal a call hands to
// sim.Engine.At or After, or nil.
func scheduledLiteral(pkg *Package, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "At" && sel.Sel.Name != "After") || len(call.Args) == 0 {
		return nil
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "ccnuma/internal/sim" || named.Obj().Name() != "Engine" {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkSchedNoop flags closures handed to the event engine that can never
// advance the simulation: a callback containing no call, send, or go
// statement burns an event without enqueuing work.
func checkSchedNoop(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit := scheduledLiteral(pkg, call)
			if lit == nil {
				return true
			}
			if !doesWork(lit.Body) {
				out = append(out, pkg.finding(lit.Pos(), "sched-noop",
					"callback scheduled on the sim engine performs no call/send; it consumes an event without advancing work"))
			}
			return true
		})
	}
	return out
}

// checkSchedClosure flags, in schedClosurePackages, function literals
// scheduled on the sim engine (At, After) or installed as a bus
// transaction's completion (an assignment to, or a composite-literal
// element for, smpbus.Txn's Done field).
func checkSchedClosure(pkg *Package) []Finding {
	if !schedClosurePackages[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	flag := func(lit *ast.FuncLit, where string) {
		out = append(out, pkg.finding(lit.Pos(), "sched-closure",
			"function literal %s allocates each time it is evaluated; bind the callback once to a long-lived object", where))
	}
	isDone := func(e ast.Expr) bool {
		var obj types.Object
		switch e := e.(type) {
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[e.Sel]
		case *ast.Ident:
			obj = pkg.Info.Uses[e]
		}
		v, ok := obj.(*types.Var)
		return ok && v.IsField() && v.Name() == "Done" && v.Pkg() != nil &&
			v.Pkg().Path() == "ccnuma/internal/smpbus"
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if lit := scheduledLiteral(pkg, n); lit != nil {
					flag(lit, "scheduled on the sim engine")
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok && isDone(lhs) {
						flag(lit, "installed as a bus transaction's Done")
					}
				}
			case *ast.KeyValueExpr:
				if lit, ok := n.Value.(*ast.FuncLit); ok && isDone(n.Key) {
					flag(lit, "installed as a bus transaction's Done")
				}
			}
			return true
		})
	}
	return out
}

// doesWork reports whether a callback body contains at least one call,
// channel send, or go statement.
func doesWork(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.CallExpr, *ast.SendStmt, *ast.GoStmt:
			found = true
		}
		return !found
	})
	return found
}

// checkConfigLiterals flags const/var declarations in the recovery-path
// packages that pin a retry, timeout, backoff, or NACK tuning value to a
// local numeric literal. Those values belong to internal/config's
// robustness preset, which Config.Robust switches on as a whole.
// Declarations whose initializer is derived from package config are exempt.
func checkConfigLiterals(pkg *Package) []Finding {
	if !retryPackages[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.GenDecl)
			if !ok || (decl.Tok != token.CONST && decl.Tok != token.VAR) {
				return true
			}
			for _, spec := range decl.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) || !retryNamePat.MatchString(name.Name) {
						continue
					}
					val := vs.Values[i]
					tv, ok := pkg.Info.Types[val]
					if !ok || tv.Value == nil {
						continue // not a compile-time constant
					}
					switch tv.Value.Kind() {
					case constant.Int, constant.Float:
					default:
						continue
					}
					if mentionsConfig(pkg, val) {
						continue
					}
					out = append(out, pkg.finding(name.Pos(), "config-literal",
						"%s %s pins a retry/timeout/backoff value to a literal; recovery tuning must come from internal/config",
						decl.Tok, name.Name))
				}
			}
			return true
		})
	}
	return out
}

// mentionsConfig reports whether the expression references anything
// declared in internal/config (a knob or a config-derived constant).
func mentionsConfig(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "ccnuma/internal/config" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkEnumStrings requires every lint-target enum declared in the package
// to be printable: diagnostics, traces, and stats reports all format these
// values, and a missing String method degrades them to bare integers.
func checkEnumStrings(pkg *Package) []Finding {
	names := enumTargets[pkg.ImportPath]
	if len(names) == 0 {
		return nil
	}
	var out []Finding
	for _, name := range names {
		obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			out = append(out, Finding{
				Pos:   pkg.ImportPath,
				Check: "enum-string",
				Message: fmt.Sprintf("expected enum type %s is not declared (update the lint target list)",
					name),
			})
			continue
		}
		named := obj.Type().(*types.Named)
		if m, _, _ := types.LookupFieldOrMethod(named, true, pkg.Types, "String"); m == nil {
			out = append(out, pkg.finding(obj.Pos(), "enum-string",
				"enum %s has no String method; handlers/traces/stats print it as a bare integer", name))
		}
	}
	return out
}

// checkConfigSchema requires every exported field of the package's Config
// struct — and, transitively, of any in-package struct type reachable
// through its fields — to carry a json tag. The scenario layer serializes
// Config verbatim, so an untagged field would marshal under its Go name,
// drift out of the documented camelCase schema, and break the
// canonical-form fingerprint the replay machinery depends on. Types with
// their own MarshalJSON/MarshalText control their representation directly
// and are not descended into.
func checkConfigSchema(pkg *Package) []Finding {
	if !configSchemaPackages[pkg.ImportPath] {
		return nil
	}
	obj, ok := pkg.Types.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return []Finding{{
			Pos:     pkg.ImportPath,
			Check:   "config-schema",
			Message: "expected type Config is not declared (update the lint target list)",
		}}
	}
	var out []Finding
	seen := map[*types.Named]bool{}
	var audit func(named *types.Named)
	audit = func(named *types.Named) {
		if seen[named] {
			return
		}
		seen[named] = true
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			tag, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
			if !tagged || tag == "-" || strings.HasPrefix(tag, ",") {
				out = append(out, pkg.finding(f.Pos(), "config-schema",
					"exported field %s.%s has no json tag; every config knob must be representable in the ccnuma-scenario/v1 schema",
					named.Obj().Name(), f.Name()))
			}
			if nested, ok := fieldStruct(f.Type(), pkg.Types); ok {
				audit(nested)
			}
		}
	}
	if named, ok := obj.Type().(*types.Named); ok {
		audit(named)
	}
	return out
}

// fieldStruct resolves a field type (through pointers, slices, arrays, and
// maps) to a named struct declared in the given package that does not
// define its own JSON representation.
func fieldStruct(t types.Type, in *types.Package) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() != in {
				return nil, false
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				return nil, false
			}
			for _, m := range []string{"MarshalJSON", "MarshalText"} {
				if fn, _, _ := types.LookupFieldOrMethod(named, true, in, m); fn != nil {
					return nil, false
				}
			}
			return named, true
		}
	}
}

// checkSpanPairs enforces the span checkpoint pairing rule: a handler file
// that marks a transaction's entry into an attribution stage (SpanBegin
// with a named obs.Stage constant) must also contain a SpanEnd checkpoint
// for the same stage constant. A begin with no end in its file means the
// component announces a stage it never closes, so the stage's cycles
// silently fold into whatever checkpoint happens to come next. SpanEnd
// without SpanBegin is legal — several stages are measured end-only because
// their entry is another component's exit. Stage arguments that are not
// named constants (variables, expressions) are outside the rule.
func checkSpanPairs(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		begins := map[string]token.Pos{}
		ends := map[string]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "SpanBegin" && sel.Sel.Name != "SpanEnd") {
				return true
			}
			selection, ok := pkg.Info.Selections[sel]
			if !ok {
				return true
			}
			recv := selection.Recv()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			named, isNamed := recv.(*types.Named)
			if !isNamed || named.Obj().Pkg() == nil ||
				named.Obj().Pkg().Path() != "ccnuma/internal/obs" || named.Obj().Name() != "Tracer" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			stage, ok := stageConstName(pkg, call.Args[1])
			if !ok {
				return true
			}
			if sel.Sel.Name == "SpanBegin" {
				if _, seen := begins[stage]; !seen {
					begins[stage] = call.Pos()
				}
			} else {
				ends[stage] = true
			}
			return true
		})
		var unpaired []string
		for stage := range begins {
			if !ends[stage] {
				unpaired = append(unpaired, stage)
			}
		}
		sort.Strings(unpaired)
		for _, stage := range unpaired {
			out = append(out, pkg.finding(begins[stage], "span-pair",
				"SpanBegin(%s) has no SpanEnd for the same stage in this file; the stage's cycles would fold into the next checkpoint",
				stage))
		}
	}
	return out
}

// stageConstName resolves an expression to the name of an obs.Stage
// constant, reporting false for anything else.
func stageConstName(pkg *Package, e ast.Expr) (string, bool) {
	var obj types.Object
	switch x := e.(type) {
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[x.Sel]
	case *ast.Ident:
		obj = pkg.Info.Uses[x]
	default:
		return "", false
	}
	c, ok := obj.(*types.Const)
	if !ok {
		return "", false
	}
	named, ok := c.Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "ccnuma/internal/obs" || named.Obj().Name() != "Stage" {
		return "", false
	}
	return c.Name(), true
}

// checkNoGoroutines flags go statements outside the sanctioned concurrency
// homes (see goroutineAllowed). A goroutine anywhere
// else undermines the parallel runner's determinism argument: simulations
// stay embarrassingly parallel only while every model component runs
// exclusively on its engine's goroutine and every result is committed in
// job-index order.
func checkNoGoroutines(pkg *Package) []Finding {
	if goroutineAllowed[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, pkg.finding(g.Pos(), "no-goroutine",
					"go statement outside internal/runner and the other sanctioned concurrency homes; fan work out through the runner pool instead"))
			}
			return true
		})
	}
	return out
}

// checkRangeMaps flags map iterations with order-dependent effects in the
// simulation-affecting packages. Go deliberately randomizes map iteration
// order, so any loop over a map whose body's outcome depends on visit
// order desynchronizes otherwise-identical runs. The allowed shapes are
// the order-insensitive ones used for the sorted-iteration idiom and for
// bookkeeping: collecting keys/values with append (sort afterwards),
// deleting entries, writing other map elements, and numeric/boolean
// accumulation. Everything else must iterate sorted keys instead.
func checkRangeMaps(pkg *Package) []Finding {
	if !rangeMapPackages[pkg.ImportPath] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if rangeBodyOrderInsensitive(pkg, rs.Body.List) {
				return true
			}
			out = append(out, pkg.finding(rs.Pos(), "rangemap",
				"map iteration with order-dependent effects; collect the keys, sort them, and iterate the sorted slice"))
			return true
		})
	}
	return out
}

// rangeBodyOrderInsensitive reports whether every statement in a range
// body is insensitive to iteration order.
func rangeBodyOrderInsensitive(pkg *Package, stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if !rangeStmtOrderInsensitive(pkg, st) {
			return false
		}
	}
	return true
}

func rangeStmtOrderInsensitive(pkg *Package, st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			// x = append(x, ...): key/value collection for later sorting.
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
					if render, ok1 := s.Lhs[0].(*ast.Ident); ok1 {
						if arg, ok2 := call.Args[0].(*ast.Ident); ok2 && arg.Name == render.Name {
							return true
						}
					}
				}
			}
			// m2[k] = v: element writes land per key regardless of order.
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok {
				if t := pkg.Info.TypeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return true
					}
				}
			}
			return false
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			// Commutative accumulation.
			return true
		default:
			return false
		}
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		// delete(m, k) is the only order-insensitive call form.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.BlockStmt:
		return rangeBodyOrderInsensitive(pkg, s.List)
	case *ast.IfStmt:
		// A guard is fine as long as both arms stay order-insensitive and
		// the condition has no side effects (conditions are expressions;
		// the risky effects live in the branches).
		if s.Init != nil && !rangeStmtOrderInsensitive(pkg, s.Init) {
			return false
		}
		if !rangeBodyOrderInsensitive(pkg, s.Body.List) {
			return false
		}
		if s.Else != nil {
			return rangeStmtOrderInsensitive(pkg, s.Else)
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	default:
		return false
	}
}
