package extract

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ccnuma/internal/lint"
	"ccnuma/internal/protocol"
	"ccnuma/internal/smpbus"
)

// stopSet are the controller methods the rule walker must not descend
// into: the dispatch loop itself and the waiter-replay path (replaying
// parked work re-enters dispatch, which would make the walk cyclic and
// attribute every handler's actions to every other).
var stopSet = map[string]bool{
	"dispatch": true, "kick": true, "pick": true, "take": true,
	"enqueue": true, "replay": true,
}

// extractor holds the type-checked packages and the per-run memo tables.
type extractor struct {
	core  *lint.Package
	proto *lint.Package

	// methods maps Controller method name -> declaration.
	methods map[string]*ast.FuncDecl
	// charging marks methods that (transitively) call cc.charge.
	charging map[string]bool
	// summaries memoizes the transitive send/directory-write closure of
	// non-charging helper methods.
	summaries map[string]*summary

	handlerName map[int64]string // protocol.Handler const value -> identifier

	problems []string
}

// summary is the transitive effect closure of one helper method.
type summary struct {
	sends     []Send
	dirWrites []string
}

func (x *extractor) problemf(format string, args ...interface{}) {
	x.problems = append(x.problems, fmt.Sprintf(format, args...))
}

// Extract statically derives the protocol model from the module's
// internal/core and internal/protocol packages.
func Extract(moduleRoot string) (*Model, error) {
	pkgs, err := lint.Load(moduleRoot, "./internal/core", "./internal/protocol")
	if err != nil {
		return nil, fmt.Errorf("extract: loading packages: %w", err)
	}
	x := &extractor{
		methods:     map[string]*ast.FuncDecl{},
		charging:    map[string]bool{},
		summaries:   map[string]*summary{},
		handlerName: map[int64]string{},
	}
	for _, p := range pkgs {
		switch {
		case strings.HasSuffix(p.ImportPath, "internal/core"):
			x.core = p
		case strings.HasSuffix(p.ImportPath, "internal/protocol"):
			x.proto = p
		}
	}
	if x.core == nil || x.proto == nil {
		return nil, fmt.Errorf("extract: loaded %d packages, need internal/core and internal/protocol", len(pkgs))
	}
	x.collectMethods()
	x.collectHandlerNames()
	x.computeCharging()

	m := &Model{Schema: Schema}
	var err2 error
	if m.Sources, err2 = hashSources(moduleRoot); err2 != nil {
		return nil, err2
	}
	m.Messages = messageTable()
	m.Handlers = handlerTable(x.handlerName)
	m.Rules = x.extractRules()
	if len(x.problems) > 0 {
		sort.Strings(x.problems)
		return nil, fmt.Errorf("extract: %d unsupported patterns (the extractor must be taught about them before the model can be regenerated):\n  %s",
			len(x.problems), strings.Join(x.problems, "\n  "))
	}
	if err := x.checkComplete(m); err != nil {
		return nil, err
	}
	// Round-trip through the canonical form so the returned model carries
	// its fingerprint.
	b, err := m.Canonical()
	if err != nil {
		return nil, err
	}
	var canon Model
	if err := json.Unmarshal(b, &canon); err != nil {
		return nil, fmt.Errorf("extract: re-decoding canonical model: %w", err)
	}
	m.sortAll()
	m.Fingerprint = canon.Fingerprint
	return m, nil
}

// ---- static tables ---------------------------------------------------------

// hashSources pins every non-test Go file of the two analyzed packages.
func hashSources(moduleRoot string) ([]SourceHash, error) {
	var out []SourceHash
	for _, dir := range []string{"internal/core", "internal/protocol"} {
		names, err := filepath.Glob(filepath.Join(moduleRoot, dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			b, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(b)
			out = append(out, SourceHash{
				Path:   filepath.ToSlash(filepath.Join(dir, filepath.Base(name))),
				SHA256: fmt.Sprintf("%x", sum),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func messageTable() []Message {
	var out []Message
	for t := 0; t < protocol.NumMsgTypes; t++ {
		msg := protocol.Msg{Type: protocol.MsgType(t)}
		out = append(out, Message{
			Name:        msg.Type.String(),
			CarriesData: msg.CarriesData(),
			Nackable:    msg.Nackable(),
			Response:    msg.IsResponse(),
		})
	}
	return out
}

func handlerTable(names map[int64]string) []HandlerInfo {
	var out []HandlerInfo
	for h := 0; h < protocol.NumHandlers; h++ {
		var seq []string
		for _, op := range protocol.Sequence(protocol.Handler(h)) {
			seq = append(seq, op.String())
		}
		out = append(out, HandlerInfo{
			Name:        names[int64(h)],
			ID:          h,
			Desc:        protocol.Handler(h).String(),
			Sequence:    seq,
			Stall:       protocol.Stall(protocol.Handler(h)).String(),
			ActionIndex: protocol.ActionIndex(protocol.Handler(h)),
		})
	}
	return out
}

// collectHandlerNames maps protocol.Handler const values to their
// identifiers via the type-checked protocol package scope.
func (x *extractor) collectHandlerNames() {
	scope := x.proto.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != "Handler" {
			continue
		}
		if v, ok := constant.Int64Val(c.Val()); ok {
			x.handlerName[v] = name
		}
	}
	if len(x.handlerName) != protocol.NumHandlers {
		x.problemf("found %d protocol.Handler constants, want %d", len(x.handlerName), protocol.NumHandlers)
	}
}

// collectMethods indexes every *Controller method declaration.
func (x *extractor) collectMethods() {
	for _, f := range x.core.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if recvTypeName(fd.Recv.List[0].Type) == "Controller" {
				x.methods[fd.Name.Name] = fd
			}
		}
	}
}

// computeCharging marks methods that transitively reach cc.charge.
func (x *extractor) computeCharging() {
	direct := map[string][]string{} // method -> cc-method callees
	for name, fd := range x.methods {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "cc" {
				if sel.Sel.Name == "charge" {
					x.charging[name] = true
				} else if _, isM := x.methods[sel.Sel.Name]; isM && !stopSet[sel.Sel.Name] {
					direct[name] = append(direct[name], sel.Sel.Name)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for name, callees := range direct {
			if x.charging[name] {
				continue
			}
			for _, c := range callees {
				if x.charging[c] {
					x.charging[name] = true
					changed = true
					break
				}
			}
		}
	}
}

// ---- rule extraction -------------------------------------------------------

// extractRules walks every dispatch root and assembles the rule table.
func (x *extractor) extractRules() []Rule {
	var rules []Rule

	// Message triggers: one per case constant of handleMsg's type switch.
	hm := x.methods["handleMsg"]
	if hm == nil {
		x.problemf("handleMsg not found")
		return nil
	}
	for _, cv := range x.switchCaseConsts(hm, "msg.Type") {
		trigger := "msg:" + protocol.MsgType(cv).String()
		w := x.newWalker()
		w.env["msg.Type"] = cv
		w.walkFunc(hm, nil)
		rules = append(rules, x.assemble(trigger, w.events)...)
	}

	// Bus triggers: the deferrable kinds (handleLocalBus's switch domain),
	// each in its local-home and remote-home variant.
	hlb := x.methods["handleLocalBus"]
	hbt := x.methods["handleBusTxn"]
	if hlb == nil || hbt == nil {
		x.problemf("handleLocalBus/handleBusTxn not found")
		return rules
	}
	for _, cv := range x.switchCaseConsts(hlb, "txn.Kind") {
		for _, local := range []bool{true, false} {
			domain := "/remote"
			if local {
				domain = "/local"
			}
			trigger := "bus:" + smpbus.Kind(cv).String() + domain
			w := x.newWalker()
			w.env["txn.Kind"] = cv
			w.bools["txn.HomeLocal"] = local
			w.walkFunc(hbt, nil)
			rules = append(rules, x.assemble(trigger, w.events)...)
		}
	}

	// Engine-free datapaths: the NI request-queue NACK bounce and the
	// direct write-back path send without dispatching a handler.
	for _, root := range []struct{ method, trigger string }{
		{"deliver", "ni:request"},
		{"CaptureWriteBack", "direct:WriteBack"},
	} {
		fd := x.methods[root.method]
		if fd == nil {
			x.problemf("%s not found", root.method)
			continue
		}
		w := x.newWalker()
		w.walkFunc(fd, nil)
		rules = append(rules, x.assembleOrphans(root.trigger, w.events)...)
	}
	return dedupRules(rules)
}

// switchCaseConsts returns the distinct constant values of the case
// expressions of fd's switch over tag (rendered text), in source order.
func (x *extractor) switchCaseConsts(fd *ast.FuncDecl, tag string) []int64 {
	var out []int64
	seen := map[int64]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil || x.render(sw.Tag) != tag {
			return true
		}
		for _, c := range sw.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				if v, ok := x.constVal(e); ok && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		return false
	})
	if len(out) == 0 {
		x.problemf("%s: no switch over %s", fd.Name.Name, tag)
	}
	return out
}

// assemble groups the walk's ordered events into charge sites and flattens
// them into rules. A non-charge event belongs to the latest site whose
// guard stack is a prefix of its own (the charge dominates it); events seen
// before any dominating site apply to every later site they dominate.
func (x *extractor) assemble(trigger string, events []*event) []Rule {
	type asite struct {
		ev        *event
		sends     []Send
		updates   []string
		dirWrites []string
	}
	var sites []*asite
	var pre []*event
	attach := func(s *asite, ev *event) {
		switch ev.kind {
		case evSend:
			s.sends = append(s.sends, ev.sends...)
		case evUpdate:
			s.updates = append(s.updates, ev.text)
		case evDirWrite:
			s.dirWrites = append(s.dirWrites, ev.texts...)
		}
	}
	for _, ev := range events {
		if ev.kind == evCharge {
			sites = append(sites, &asite{ev: ev})
			continue
		}
		var dom *asite
		for _, s := range sites {
			if isPrefix(s.ev.guards, ev.guards) {
				dom = s
			}
		}
		if dom != nil {
			attach(dom, ev)
		} else {
			pre = append(pre, ev)
		}
	}
	for _, ev := range pre {
		for _, s := range sites {
			if isPrefix(ev.guards, s.ev.guards) {
				attach(s, ev)
			}
		}
	}
	var rules []Rule
	for _, s := range sites {
		for _, v := range s.ev.variants {
			rules = append(rules, Rule{
				Trigger:   trigger,
				Fn:        s.ev.fn,
				Handler:   v.handler,
				Guards:    dedupStrings(append(append([]string{}, s.ev.guards...), v.guards...)),
				Updates:   dedupStrings(s.updates),
				Sends:     dedupSends(s.sends),
				DirWrites: dedupStrings(s.dirWrites),
			})
		}
	}
	return rules
}

// assembleOrphans turns each send of an engine-free root into its own
// handlerless rule, folding in guard-compatible updates.
func (x *extractor) assembleOrphans(trigger string, events []*event) []Rule {
	var rules []Rule
	for _, ev := range events {
		if ev.kind == evCharge {
			x.problemf("%s: engine-free root %s charges a handler", trigger, ev.fn)
		}
		if ev.kind != evSend {
			continue
		}
		r := Rule{Trigger: trigger, Fn: ev.fn, Guards: ev.guards, Sends: dedupSends(ev.sends)}
		for _, other := range events {
			if other.kind == evUpdate && isPrefix(ev.guards, other.guards) {
				r.Updates = append(r.Updates, other.text)
			}
			if other.kind == evDirWrite && isPrefix(ev.guards, other.guards) {
				r.DirWrites = append(r.DirWrites, other.texts...)
			}
		}
		r.Updates = dedupStrings(r.Updates)
		r.DirWrites = dedupStrings(r.DirWrites)
		rules = append(rules, r)
	}
	return rules
}

// checkComplete verifies the model covers the whole protocol surface:
// every handler is charged by some rule, every message type has a
// dispatch rule, and every message type is sent by some rule.
func (x *extractor) checkComplete(m *Model) error {
	charged := map[string]bool{}
	dispatched := map[string]bool{}
	sent := map[string]bool{}
	for _, r := range m.Rules {
		if r.Handler != "" {
			charged[r.Handler] = true
		}
		if strings.HasPrefix(r.Trigger, "msg:") {
			dispatched[strings.TrimPrefix(r.Trigger, "msg:")] = true
		}
		for _, s := range r.Sends {
			sent[s.Type] = true
		}
	}
	var missing []string
	for _, h := range m.Handlers {
		if !charged[h.Name] {
			missing = append(missing, "handler never charged: "+h.Name)
		}
	}
	for _, msg := range m.Messages {
		if !dispatched[msg.Name] {
			missing = append(missing, "message never dispatched: "+msg.Name)
		}
		if !sent[msg.Name] {
			missing = append(missing, "message never sent: "+msg.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("extract: incomplete model:\n  %s", strings.Join(missing, "\n  "))
	}
	return nil
}

// ---- helpers ---------------------------------------------------------------

func isPrefix(prefix, full []string) bool {
	if len(prefix) > len(full) {
		return false
	}
	for i, g := range prefix {
		if full[i] != g {
			return false
		}
	}
	return true
}

func dedupStrings(in []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range in {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func dedupSends(in []Send) []Send {
	var out []Send
	seen := map[Send]bool{}
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func dedupRules(in []Rule) []Rule {
	var out []Rule
	seen := map[string]bool{}
	for _, r := range in {
		key := r.Trigger + "\x00" + r.Fn + "\x00" + r.Handler + "\x00" + strings.Join(r.Guards, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}

// render prints an AST node as normalized single-line source text.
func (x *extractor) render(n ast.Node) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, x.core.Fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// constVal resolves an expression to its integer constant value.
func (x *extractor) constVal(e ast.Expr) (int64, bool) {
	tv, ok := x.core.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// boolVal resolves an expression to its boolean constant value.
func (x *extractor) boolVal(e ast.Expr) (bool, bool) {
	tv, ok := x.core.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// typeText returns the fully qualified type string of e (empty when the
// type checker has no entry).
func (x *extractor) typeText(e ast.Expr) string {
	tv, ok := x.core.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	return tv.Type.String()
}

// continuation reports the controller method a method expression
// (*Controller).name names: the form a handler uses to defer a method to a
// later cycle or to a bus completion.
func (x *extractor) continuation(sel *ast.SelectorExpr) (string, bool) {
	s, ok := x.core.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodExpr {
		return "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	if named, isNamed := recv.(*types.Named); !isNamed || named.Obj().Name() != "Controller" {
		return "", false
	}
	return sel.Sel.Name, true
}

func recvTypeName(t ast.Expr) string {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// neg renders the logical negation of a rendered condition.
func neg(c string) string {
	if strings.HasPrefix(c, "!(") && strings.HasSuffix(c, ")") && balanced(c[1:]) {
		return c[2 : len(c)-1]
	}
	if strings.HasPrefix(c, "!") && !strings.ContainsAny(c[1:], " ") {
		return c[1:]
	}
	if strings.ContainsAny(c, " ") {
		return "!(" + c + ")"
	}
	return "!" + c
}

func balanced(s string) bool {
	depth := 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 && i != len(s)-1 {
				return false
			}
		}
	}
	return depth == 0
}

func guardsPlus(g []string, c string) []string {
	out := make([]string, len(g), len(g)+1)
	copy(out, g)
	return append(out, c)
}
