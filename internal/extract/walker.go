package extract

import (
	"go/ast"
	"go/token"
	"strings"

	"ccnuma/internal/directory"
	"ccnuma/internal/protocol"
)

// Event kinds collected during a walk, in source order.
const (
	evCharge = iota
	evSend
	evUpdate
	evDirWrite
)

// variant is one possible handler a charge site can resolve to, with the
// extra guards under which the handler variable holds that value.
type variant struct {
	handler string
	guards  []string
}

// event is one observable action on a guarded path.
type event struct {
	kind     int
	fn       string // controller method the event occurred in
	guards   []string
	variants []variant // evCharge
	sends    []Send    // evSend
	text     string    // evUpdate
	texts    []string  // evDirWrite
}

// rhsAssign is one (possibly guarded) assignment to a tracked variable;
// rhs is nil for a bare `var x T` declaration (zero value).
type rhsAssign struct {
	rhs    ast.Expr
	guards []string
}

// collection switches a walker into collect-only mode: it records the
// assignments to one local variable instead of emitting events.
type collection struct {
	name string
	out  []rhsAssign
}

// walker interprets one trigger binding over the handler call graph. env
// maps rendered expression text (e.g. "msg.Type") to known constant
// values and bools to known condition outcomes; both drive branch pruning
// so each trigger only sees the paths it can actually take.
type walker struct {
	x       *extractor
	env     map[string]int64
	bools   map[string]bool
	events  []*event
	stack   map[string]bool
	collect *collection
}

func (x *extractor) newWalker() *walker {
	return &walker{
		x:     x,
		env:   map[string]int64{},
		bools: map[string]bool{},
		stack: map[string]bool{},
	}
}

func (w *walker) emit(ev *event) {
	if w.collect == nil {
		w.events = append(w.events, ev)
	}
}

// walkFunc walks one controller method body under the given guard stack.
func (w *walker) walkFunc(fd *ast.FuncDecl, g []string) {
	name := fd.Name.Name
	if w.stack[name] {
		w.x.problemf("recursive handler call via %s", name)
		return
	}
	w.stack[name] = true
	w.walkStmts(fd.Body.List, g, name)
	delete(w.stack, name)
}

// walkStmts interprets a statement list: structured control flow extends
// the guard stack (pruned where the trigger binding decides a branch);
// everything else is scanned for charge/send/update/dir-write actions.
func (w *walker) walkStmts(list []ast.Stmt, g []string, fn string) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				w.scanStmt(s.Init, g, fn)
			}
			cond := w.x.render(s.Cond)
			if v, known := w.eval(s.Cond); known {
				if v {
					w.walkStmts(s.Body.List, g, fn)
					if terminates(s.Body.List) {
						return
					}
				} else if s.Else != nil {
					if w.walkElse(s.Else, g, fn) {
						return
					}
				}
				continue
			}
			w.walkStmts(s.Body.List, guardsPlus(g, cond), fn)
			if s.Else != nil {
				et := w.walkElse(s.Else, guardsPlus(g, neg(cond)), fn)
				if terminates(s.Body.List) && et {
					return
				}
			} else if terminates(s.Body.List) {
				// the fall-through path implies the condition was false
				g = guardsPlus(g, neg(cond))
			}
		case *ast.SwitchStmt:
			w.walkSwitch(s, g, fn)
		case *ast.BlockStmt:
			w.walkStmts(s.List, g, fn)
		case *ast.ForStmt:
			w.walkStmts(s.Body.List, g, fn)
		case *ast.RangeStmt:
			w.walkStmts(s.Body.List, g, fn)
		case *ast.ReturnStmt:
			w.scanStmt(s, g, fn)
			return
		default:
			w.scanStmt(s, g, fn)
		}
	}
}

// walkElse walks an else arm and reports whether it always terminates.
func (w *walker) walkElse(s ast.Stmt, g []string, fn string) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, g, fn)
		return terminates(s.List)
	case *ast.IfStmt:
		w.walkStmts([]ast.Stmt{s}, g, fn)
		return terminates(s.Body.List) && s.Else != nil && elseTerminates(s.Else)
	}
	return false
}

// walkSwitch handles both tag switches (pruned exactly when the trigger
// binding pins the tag) and tagless switches (an if/else-if chain with
// first-match semantics).
func (w *walker) walkSwitch(s *ast.SwitchStmt, g []string, fn string) {
	if s.Init != nil {
		w.scanStmt(s.Init, g, fn)
	}
	var def *ast.CaseClause
	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			def = cc
		} else {
			clauses = append(clauses, cc)
		}
	}
	if s.Tag != nil {
		tag := w.x.render(s.Tag)
		if tv, ok := w.env[tag]; ok {
			for _, cc := range clauses {
				for _, e := range cc.List {
					if cv, ok := w.x.constVal(e); ok && cv == tv {
						w.walkStmts(cc.Body, g, fn)
						return
					}
				}
			}
			if def != nil {
				w.walkStmts(def.Body, g, fn)
			}
			return
		}
		var all []string
		for _, cc := range clauses {
			var ors []string
			for _, e := range cc.List {
				ors = append(ors, tag+" == "+w.x.render(e))
			}
			all = append(all, ors...)
			w.walkStmts(cc.Body, guardsPlus(g, parenOr(ors)), fn)
		}
		if def != nil {
			w.walkStmts(def.Body, guardsPlus(g, neg(parenOr(all))), fn)
		}
		return
	}
	rem := g
	for _, cc := range clauses {
		var ors []string
		anyTrue, allFalse := false, true
		for _, e := range cc.List {
			ors = append(ors, w.x.render(e))
			v, known := w.eval(e)
			if known && v {
				anyTrue = true
			}
			if !known || v {
				allFalse = false
			}
		}
		if anyTrue {
			w.walkStmts(cc.Body, rem, fn)
			return
		}
		if allFalse {
			continue
		}
		cond := parenOr(ors)
		w.walkStmts(cc.Body, guardsPlus(rem, cond), fn)
		rem = guardsPlus(rem, neg(cond))
	}
	if def != nil {
		w.walkStmts(def.Body, rem, fn)
	}
}

// ---- statement scanning ----------------------------------------------------

func (w *walker) scanStmt(s ast.Stmt, g []string, fn string) {
	w.scanNode(s, g, fn, false)
}

// scanNode inspects a simple statement (or a function-literal body) for
// actions. lit marks positions inside a function literal: sends there may
// run after the dispatch window, so they are flagged deferred. A controller
// method referenced as a continuation ((*Controller).name, scheduled or
// installed as a bus completion) is read the same way, as a deferred call.
func (w *walker) scanNode(n ast.Node, g []string, fn string, lit bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch nn := node.(type) {
		case *ast.FuncLit:
			w.scanNode(nn.Body, g, fn, true)
			return false
		case *ast.SelectorExpr:
			if name, ok := w.x.continuation(nn); ok {
				w.deferredCall(name, g, fn)
				return false
			}
			return true
		case *ast.CallExpr:
			w.handleCall(nn, g, fn, lit)
			return true
		case *ast.AssignStmt:
			w.noteAssign(nn, g, fn, lit)
			return true
		case *ast.IncDecStmt:
			w.noteIncDec(nn, g, fn, lit)
			return true
		case *ast.ValueSpec:
			if w.collect != nil && len(nn.Values) == 0 {
				for _, id := range nn.Names {
					if id.Name == w.collect.name {
						w.collect.out = append(w.collect.out, rhsAssign{guards: g})
					}
				}
			}
			return true
		}
		return true
	})
}

// handleCall classifies a call: the charge and send primitives emit
// events, charging methods are walked inline (propagating constant
// argument bindings), and non-charging helpers contribute their
// transitive effect summary.
func (w *walker) handleCall(call *ast.CallExpr, g []string, fn string, lit bool) {
	if w.collect != nil {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if t := w.x.render(call.Args[0]); t == "cc.homeOps" || t == "cc.mshr" {
			w.emit(&event{kind: evUpdate, fn: fn, guards: g, text: updateText(w.x.render(call), lit)})
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := w.x.render(sel.X)
	name := sel.Sel.Name
	if recv == "cc.dir" && name == "Write" && len(call.Args) == 3 {
		w.emit(&event{kind: evDirWrite, fn: fn, guards: g, texts: w.entryStates("write", call.Args[2], fn)})
		return
	}
	if recv != "cc" {
		return
	}
	switch name {
	case "charge":
		if lit {
			w.x.problemf("%s: cc.charge inside a function literal is not extractable", fn)
			return
		}
		if len(call.Args) == 0 {
			w.x.problemf("%s: cc.charge without arguments", fn)
			return
		}
		w.emit(&event{kind: evCharge, fn: fn, guards: g, variants: w.handlerVariants(call.Args[0], fn)})
	case "send":
		if len(call.Args) != 3 {
			w.x.problemf("%s: cc.send with %d args", fn, len(call.Args))
			return
		}
		dst := w.x.render(call.Args[1])
		for _, t := range w.msgTypes(call.Args[2], fn) {
			w.emit(&event{kind: evSend, fn: fn, guards: g, sends: []Send{{Type: t, Dst: dst, Deferred: lit}}})
		}
	default:
		decl, isMethod := w.x.methods[name]
		if !isMethod || stopSet[name] {
			return
		}
		if w.x.charging[name] {
			if lit {
				w.x.problemf("%s: call to charging method %s inside a function literal", fn, name)
				return
			}
			w.walkCallee(decl, call, g)
			return
		}
		w.emitSummary(name, g, fn, lit)
	}
}

// deferredCall reads a controller method referenced as a continuation: its
// effects happen after the dispatch window, like a function literal's.
func (w *walker) deferredCall(name string, g []string, fn string) {
	if w.collect != nil {
		return
	}
	if _, isMethod := w.x.methods[name]; !isMethod || stopSet[name] {
		return
	}
	if w.x.charging[name] {
		w.x.problemf("%s: charging method %s referenced as a continuation", fn, name)
		return
	}
	w.emitSummary(name, g, fn, true)
}

// emitSummary emits the transitive sends and directory writes of a
// non-charging helper, flagging the sends deferred when deferred is set.
func (w *walker) emitSummary(name string, g []string, fn string, deferred bool) {
	sum := w.x.summarize(name)
	for _, s := range sum.sends {
		s.Deferred = s.Deferred || deferred
		w.emit(&event{kind: evSend, fn: fn, guards: g, sends: []Send{s}})
	}
	if len(sum.dirWrites) > 0 {
		w.emit(&event{kind: evDirWrite, fn: fn, guards: g, texts: append([]string{}, sum.dirWrites...)})
	}
}

// walkCallee inlines a charging callee under the caller's guards, binding
// constant arguments (e.g. ownerFetch's exclusive flag) so the callee's
// branches prune per call site.
func (w *walker) walkCallee(decl *ast.FuncDecl, call *ast.CallExpr, g []string) {
	child := &walker{
		x:     w.x,
		env:   copyInts(w.env),
		bools: copyBools(w.bools),
		stack: w.stack,
	}
	params := flattenParams(decl.Type.Params)
	for i, p := range params {
		if i >= len(call.Args) {
			break
		}
		if v, ok := w.x.boolVal(call.Args[i]); ok {
			child.bools[p] = v
		} else if v, ok := w.x.constVal(call.Args[i]); ok {
			child.env[p] = v
		}
	}
	child.walkFunc(decl, g)
	w.events = append(w.events, child.events...)
}

func (w *walker) noteAssign(a *ast.AssignStmt, g []string, fn string, lit bool) {
	// single-target definitions feed the partial evaluator
	if !lit && len(a.Lhs) == 1 && len(a.Rhs) == 1 {
		if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if v, known := w.eval(a.Rhs[0]); known && a.Tok == token.DEFINE {
				w.bools[id.Name] = v
			} else if a.Tok == token.ASSIGN {
				// reassigned under an unpinned branch: forget what we knew
				delete(w.bools, id.Name)
			}
		}
	}
	if w.collect != nil {
		if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
			if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name == w.collect.name {
				w.collect.out = append(w.collect.out, rhsAssign{rhs: a.Rhs[0], guards: g})
			}
		}
		return
	}
	emit := false
	if a.Tok == token.DEFINE {
		for _, r := range a.Rhs {
			if w.rhsTransient(r) {
				emit = true
			}
		}
	} else {
		for _, l := range a.Lhs {
			if w.isTransient(l) {
				emit = true
			}
		}
		for _, r := range a.Rhs {
			if w.rhsTransient(r) {
				emit = true
			}
		}
	}
	if emit {
		w.emit(&event{kind: evUpdate, fn: fn, guards: g, text: updateText(w.x.render(a), lit)})
		w.noteFinalDir(a, g, fn)
	}
}

func (w *walker) noteIncDec(s *ast.IncDecStmt, g []string, fn string, lit bool) {
	if w.collect != nil {
		return
	}
	if w.isTransient(s.X) {
		w.emit(&event{kind: evUpdate, fn: fn, guards: g, text: updateText(w.x.render(s), lit)})
	}
}

// noteFinalDir records directory states staged into op.finalDir (whether
// assigned directly or carried in a homeOp composite literal); retireOp
// later commits them, which summaries report as "write=final".
func (w *walker) noteFinalDir(a *ast.AssignStmt, g []string, fn string) {
	for i, lhs := range a.Lhs {
		if i >= len(a.Rhs) {
			break
		}
		rhs := a.Rhs[i]
		if strings.HasSuffix(w.x.render(lhs), ".finalDir") {
			if st := w.litStates(rhs); st != nil {
				w.emit(&event{kind: evDirWrite, fn: fn, guards: g, texts: prefixAll("final", st)})
			}
			continue
		}
		ast.Inspect(rhs, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "finalDir" {
				if st := w.litStates(kv.Value); st != nil {
					w.emit(&event{kind: evDirWrite, fn: fn, guards: g, texts: prefixAll("final", st)})
				}
			}
			return true
		})
	}
}

// isTransient reports whether an lvalue addresses pending-operation state
// (homeOp/mshrEntry fields, the homeOps/mshr tables, the epoch counter).
func (w *walker) isTransient(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return transientType(w.x.typeText(e))
	case *ast.SelectorExpr:
		if w.x.render(e) == "cc.epochCtr" {
			return true
		}
		return transientType(w.x.typeText(e.X))
	case *ast.IndexExpr:
		t := w.x.render(e.X)
		return t == "cc.homeOps" || t == "cc.mshr"
	}
	return false
}

// rhsTransient reports whether an expression constructs pending-operation
// state (a homeOp or mshrEntry composite literal).
func (w *walker) rhsTransient(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && transientType(w.x.typeText(lit)) {
			found = true
		}
		return !found
	})
	return found
}

func transientType(t string) bool {
	return strings.Contains(t, "core.homeOp") || strings.Contains(t, "core.mshrEntry")
}

// ---- value resolution ------------------------------------------------------

// handlerVariants resolves cc.charge's handler argument: either a direct
// constant, or a local variable whose guarded constant assignments become
// one variant each.
func (w *walker) handlerVariants(arg ast.Expr, fn string) []variant {
	if v, ok := w.x.constVal(arg); ok {
		return []variant{{handler: w.x.handlerName[v]}}
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		w.x.problemf("%s: unsupported cc.charge handler expression %q", fn, w.x.render(arg))
		return nil
	}
	assigns := resolveChain(w.collectAssigns(fn, id.Name))
	var out []variant
	for _, a := range assigns {
		if a.rhs == nil {
			continue // bare declaration: every path assigns before charging
		}
		v, ok := w.x.constVal(a.rhs)
		if !ok {
			w.x.problemf("%s: non-constant assignment to handler variable %s: %q", fn, id.Name, w.x.render(a.rhs))
			continue
		}
		out = append(out, variant{handler: w.x.handlerName[v], guards: a.guards})
	}
	if len(out) == 0 {
		w.x.problemf("%s: no constant assignments to handler variable %s", fn, id.Name)
		return nil
	}
	// the initial value only survives when no later guarded assignment
	// overwrote it: extend its guards with the negation of the others'
	// branch conditions (relative to the shared path prefix)
	if len(out) > 1 {
		base := out[0].guards
		allExtend := true
		var ors []string
		for _, v := range out[1:] {
			if !isPrefix(base, v.guards) {
				allExtend = false
				break
			}
			ors = append(ors, conj(v.guards[len(base):]))
		}
		if allExtend {
			out[0].guards = append(append([]string{}, base...), neg(parenOr(ors)))
		}
	}
	return out
}

// msgTypes resolves the Type field of a cc.send message literal: a direct
// constant or a local variable's possible constant values.
func (w *walker) msgTypes(arg ast.Expr, fn string) []string {
	var lit *ast.CompositeLit
	if un, ok := arg.(*ast.UnaryExpr); ok && un.Op == token.AND {
		lit, _ = un.X.(*ast.CompositeLit)
	}
	if lit == nil {
		w.x.problemf("%s: unsupported cc.send payload %q", fn, w.x.render(arg))
		return nil
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Type" {
			continue
		}
		if v, ok := w.x.constVal(kv.Value); ok {
			return []string{protocol.MsgType(v).String()}
		}
		if id, ok := kv.Value.(*ast.Ident); ok {
			assigns := resolveChain(w.collectAssigns(fn, id.Name))
			var out []string
			seen := map[string]bool{}
			for _, a := range assigns {
				if a.rhs == nil {
					continue
				}
				if v, ok := w.x.constVal(a.rhs); ok {
					n := protocol.MsgType(v).String()
					if !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
			if len(out) > 0 {
				return out
			}
		}
		w.x.problemf("%s: unresolvable message type %q", fn, w.x.render(kv.Value))
		return nil
	}
	w.x.problemf("%s: message literal without a Type field", fn)
	return nil
}

// entryStates resolves a directory entry argument of cc.dir.Write to the
// states it can commit.
func (w *walker) entryStates(prefix string, arg ast.Expr, fn string) []string {
	if strings.HasSuffix(w.x.render(arg), ".finalDir") {
		return []string{prefix + "=final"}
	}
	if st := w.litStates(arg); st != nil {
		return prefixAll(prefix, st)
	}
	if id, ok := arg.(*ast.Ident); ok {
		assigns := resolveChain(w.collectAssigns(fn, id.Name))
		var out []string
		for _, a := range assigns {
			if a.rhs == nil {
				out = append(out, directory.State(0).String())
				continue
			}
			if st := w.litStates(a.rhs); st != nil {
				out = append(out, st...)
				continue
			}
			out = append(out, w.x.render(a.rhs))
		}
		if len(out) > 0 {
			return prefixAll(prefix, out)
		}
	}
	w.x.problemf("%s: unresolvable directory entry %q", fn, w.x.render(arg))
	return nil
}

// litStates reads the State field of a directory.Entry composite literal
// (nil when the expression isn't one); a missing field is the zero state
// and a non-constant field degrades to its source text.
func (w *walker) litStates(e ast.Expr) []string {
	lit, ok := e.(*ast.CompositeLit)
	if !ok || !strings.Contains(w.x.typeText(lit), "directory.Entry") {
		return nil
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "State" {
			if v, ok := w.x.constVal(kv.Value); ok {
				return []string{directory.State(v).String()}
			}
			return []string{w.x.render(kv.Value)}
		}
	}
	return []string{directory.State(0).String()}
}

// collectAssigns re-walks fn's body in collect mode (with the caller's
// trigger binding, so pruned branches stay pruned) and returns the
// assignments to name in path order.
func (w *walker) collectAssigns(fn, name string) []rhsAssign {
	decl := w.x.methods[fn]
	if decl == nil {
		return nil
	}
	child := &walker{
		x:       w.x,
		env:     copyInts(w.env),
		bools:   copyBools(w.bools),
		stack:   map[string]bool{},
		collect: &collection{name: name},
	}
	child.walkFunc(decl, nil)
	return child.collect.out
}

// resolveChain drops dead stores: a later assignment whose guard stack is
// a prefix of an earlier one's dominates it (every pruned path through the
// earlier store also reaches the later one).
func resolveChain(assigns []rhsAssign) []rhsAssign {
	var out []rhsAssign
	for i, a := range assigns {
		dead := false
		for _, b := range assigns[i+1:] {
			if isPrefix(b.guards, a.guards) {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, a)
		}
	}
	return out
}

// ---- effect summaries ------------------------------------------------------

// summarize computes the transitive sends and directory writes of a
// non-charging helper (completion closures and continuations included,
// flagged deferred).
func (x *extractor) summarize(name string) *summary {
	if s, ok := x.summaries[name]; ok {
		return s
	}
	s := &summary{}
	x.summaries[name] = s // pre-insert to break call cycles
	decl := x.methods[name]
	if decl == nil {
		return s
	}
	w := x.newWalker()
	include := func(callee string, deferred bool) {
		if _, isM := x.methods[callee]; !isM || stopSet[callee] || callee == name {
			return
		}
		child := x.summarize(callee)
		for _, cs := range child.sends {
			cs.Deferred = cs.Deferred || deferred
			s.sends = append(s.sends, cs)
		}
		s.dirWrites = append(s.dirWrites, child.dirWrites...)
	}
	var scan func(n ast.Node, lit bool)
	scan = func(n ast.Node, lit bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch nn := node.(type) {
			case *ast.FuncLit:
				scan(nn.Body, true)
				return false
			case *ast.SelectorExpr:
				if callee, ok := x.continuation(nn); ok {
					include(callee, true)
					return false
				}
				return true
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := x.render(sel.X)
			switch {
			case recv == "cc" && sel.Sel.Name == "send" && len(call.Args) == 3:
				dst := x.render(call.Args[1])
				for _, t := range w.msgTypes(call.Args[2], name) {
					s.sends = append(s.sends, Send{Type: t, Dst: dst, Deferred: lit})
				}
			case recv == "cc.dir" && sel.Sel.Name == "Write" && len(call.Args) == 3:
				s.dirWrites = append(s.dirWrites, w.entryStates("write", call.Args[2], name)...)
			case recv == "cc":
				include(sel.Sel.Name, lit)
			}
			return true
		})
	}
	scan(decl.Body, false)
	s.sends = dedupSends(s.sends)
	s.dirWrites = dedupStrings(s.dirWrites)
	return s
}

// ---- small helpers ---------------------------------------------------------

// eval decides a condition under the walker's trigger binding. known is
// false when the binding doesn't pin the outcome (the condition stays a
// symbolic guard).
func (w *walker) eval(e ast.Expr) (val, known bool) {
	if v, ok := w.x.boolVal(e); ok {
		return v, true
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.eval(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if v, ok := w.eval(e.X); ok {
				return !v, true
			}
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			lv, lk := w.eval(e.X)
			rv, rk := w.eval(e.Y)
			if (lk && !lv) || (rk && !rv) {
				return false, true
			}
			if lk && rk {
				return lv && rv, true
			}
		case token.LOR:
			lv, lk := w.eval(e.X)
			rv, rk := w.eval(e.Y)
			if (lk && lv) || (rk && rv) {
				return true, true
			}
			if lk && rk {
				return false, true
			}
		case token.EQL, token.NEQ:
			lv, lk := w.intOf(e.X)
			rv, rk := w.intOf(e.Y)
			if lk && rk {
				if e.Op == token.EQL {
					return lv == rv, true
				}
				return lv != rv, true
			}
		}
	case *ast.Ident:
		if v, ok := w.bools[e.Name]; ok {
			return v, true
		}
	case *ast.SelectorExpr:
		if v, ok := w.bools[w.x.render(e)]; ok {
			return v, true
		}
	}
	return false, false
}

func (w *walker) intOf(e ast.Expr) (int64, bool) {
	if v, ok := w.x.constVal(e); ok {
		return v, true
	}
	if v, ok := w.env[w.x.render(e)]; ok {
		return v, true
	}
	return 0, false
}

// terminates reports whether a statement list never falls through.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && elseTerminates(s.Else)
	}
	return false
}

func elseTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && elseTerminates(s.Else)
	}
	return false
}

func parenOr(parts []string) string {
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, " || ") + ")"
}

func conj(guards []string) string {
	if len(guards) == 0 {
		return "true"
	}
	if len(guards) == 1 {
		return guards[0]
	}
	return "(" + strings.Join(guards, " && ") + ")"
}

func prefixAll(prefix string, in []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		out = append(out, prefix+"="+s)
	}
	return out
}

func updateText(text string, lit bool) string {
	if lit {
		return "[deferred] " + text
	}
	return text
}

func flattenParams(fl *ast.FieldList) []string {
	if fl == nil {
		return nil
	}
	var out []string
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			out = append(out, "_")
			continue
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

func copyInts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyBools(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
