package extract

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const moduleRoot = "../.."

// TestCommittedModelFresh is the in-tree half of the staleness gate: a
// fresh extraction of this working tree must serialize byte-for-byte to
// the committed artifact. When this fails, run `ccmodel -write` and
// commit the result.
func TestCommittedModelFresh(t *testing.T) {
	fresh, err := Extract(moduleRoot)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	fb, err := fresh.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	committed, cb, err := LoadArtifact(moduleRoot)
	if err != nil {
		t.Fatalf("no committed %s: %v (run `ccmodel -write`)", ArtifactPath, err)
	}
	if !bytes.Equal(fb, cb) {
		t.Fatalf("committed model %s is stale; fresh extraction is %s — run `ccmodel -write` and commit %s",
			committed.Fingerprint, fresh.Fingerprint, ArtifactPath)
	}
	if reason, err := CheckStale(moduleRoot); err != nil || reason != "" {
		t.Fatalf("CheckStale disagrees: reason=%q err=%v", reason, err)
	}
}

// TestModelShape pins structural invariants of the extraction: the full
// message vocabulary in enum order, the nackable subset, the handler
// count, and the presence of every trigger family.
func TestModelShape(t *testing.T) {
	m, _, err := LoadArtifact(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := []string{
		"ReadReq", "ReadExReq", "FetchReq", "FetchExReq", "Inval", "InvalAck",
		"DataShared", "DataExcl", "OwnerData", "FetchDone", "FetchExDone",
		"FetchDataHome", "InterventionMiss", "WriteBack", "Nack",
	}
	if len(m.Messages) != len(wantMsgs) {
		t.Fatalf("messages = %d, want %d", len(m.Messages), len(wantMsgs))
	}
	for i, w := range wantMsgs {
		if m.Messages[i].Name != w {
			t.Errorf("message %d = %s, want %s (enum order)", i, m.Messages[i].Name, w)
		}
		nackable := w == "ReadReq" || w == "ReadExReq"
		if m.Messages[i].Nackable != nackable {
			t.Errorf("message %s nackable = %v, want %v", w, m.Messages[i].Nackable, nackable)
		}
	}
	if len(m.Handlers) != 28 {
		t.Errorf("handlers = %d, want 28", len(m.Handlers))
	}
	if len(m.Rules) < 50 {
		t.Errorf("rules = %d, want >= 50", len(m.Rules))
	}
	families := map[string]bool{}
	for _, r := range m.Rules {
		i := strings.IndexByte(r.Trigger, ':')
		if i < 0 {
			t.Errorf("rule trigger %q has no family prefix", r.Trigger)
			continue
		}
		families[r.Trigger[:i]] = true
		if (r.Handler == "") != (r.Trigger == "ni:request" || r.Trigger == "direct:WriteBack") {
			t.Errorf("rule %q/%q: only the NI NACK bounce and the direct write-back may be engine-free",
				r.Trigger, r.Handler)
		}
	}
	for _, fam := range []string{"msg", "bus", "ni", "direct"} {
		if !families[fam] {
			t.Errorf("no rule with trigger family %q", fam)
		}
	}
}

// TestIndexAdmission pins the admission queries the checker and the
// conformance hook depend on.
func TestIndexAdmission(t *testing.T) {
	m, _, err := LoadArtifact(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	ix := m.Index()
	if len(ix.HandlerByID) != len(m.Handlers) || len(ix.HandlerID) != len(m.Handlers) {
		t.Fatalf("handler maps incomplete: %d/%d of %d", len(ix.HandlerByID), len(ix.HandlerID), len(m.Handlers))
	}
	admitted := []struct{ trigger, handler string }{
		{"msg:ReadReq", "HRemoteReadHomeClean"},
		{"bus:Read/remote", "HBusReadRemote"},
		{"bus:ReadEx/local", "HBusReadExLocalCachedRemote"},
		{"msg:WriteBack", "HWriteBackAtHome"},
		{"msg:Nack", "HNackAtRequester"},
		{"ni:request", ""},
		{"direct:WriteBack", ""},
	}
	for _, a := range admitted {
		if !ix.Admits(a.trigger, a.handler) {
			t.Errorf("Admits(%q, %q) = false, want true", a.trigger, a.handler)
		}
	}
	if ix.Admits("msg:ReadReq", "HNackAtRequester") {
		t.Error("Admits accepted a mismatched (trigger, handler) pair")
	}
	if ix.Admits("msg:Bogus", "HRemoteReadHomeClean") {
		t.Error("Admits accepted an unknown trigger")
	}
	if !ix.AdmitsSend("msg:ReadReq", "HRemoteReadHomeClean", "DataShared") {
		t.Error("the clean home read must be able to send DataShared")
	}
	if ix.AdmitsSend("bus:Read/local", "HBusyRequeue", "DataShared") {
		t.Error("the busy requeue must not send anything")
	}
	for _, d := range []string{"DataShared", "DataExcl", "OwnerData", "Nack", "WriteBack"} {
		if !ix.Deferred[d] {
			t.Errorf("%s missing from the deferred-send set", d)
		}
	}
	if ix.Deferred["Bogus"] {
		t.Error("deferred set admits an unknown type")
	}
}

// TestContinuationsReadAsDeferred pins that a controller method a handler
// references as a continuation ((*Controller).name, scheduled or run at a
// bus completion) is read as a deferred call: the sends it reaches appear
// in the handler's rule, flagged deferred.
func TestContinuationsReadAsDeferred(t *testing.T) {
	m, err := Extract(moduleRoot)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	for _, c := range []struct{ trigger, handler, send string }{
		{"msg:Inval", "HInvalAtSharer", "InvalAck"},                  // invalDone
		{"msg:FetchReq", "HFetchOwnerRemoteReq", "OwnerData"},        // interventionDone
		{"msg:ReadReq", "HRemoteReadHomeClean", "DataShared"},        // homeFetched
		{"msg:InvalAck", "HInvalAckLastRemote", "DataExcl"},          // finishIfReady
		{"bus:Read/remote", "HBusReadRemote", "ReadReq"},             // timeout
		{"msg:Nack", "HNackAtRequester", "ReadExReq"},                // reissue
		{"bus:ReadEx/local", "HBusReadExLocalCachedRemote", "Inval"}, // sendInvals' literal, still read as deferred
	} {
		found := false
		for _, r := range m.Rules {
			if r.Trigger != c.trigger || r.Handler != c.handler {
				continue
			}
			for _, s := range r.Sends {
				if s.Type == c.send && s.Deferred {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s/%s: no deferred %s send", c.trigger, c.handler, c.send)
		}
	}
}

// copyModule clones the module's Go sources (plus go.mod and the
// committed artifact) into a temp dir so a mutation can be applied
// without touching the real tree.
func copyModule(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(path, ".go") && rel != "go.mod" && rel != ArtifactPath {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestStaleDetection is the required drift-detection test: mutating a
// handler source without regenerating the artifact must turn the gate
// red, and the report must name the changed file.
func TestStaleDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("clones and re-extracts the module; skipped in -short")
	}
	dir := copyModule(t)
	if reason, err := CheckStale(dir); err != nil || reason != "" {
		t.Fatalf("pristine clone reported stale: reason=%q err=%v", reason, err)
	}

	hpath := filepath.Join(dir, "internal", "core", "handlers.go")
	src, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hpath, append(src, []byte("\n// drift probe\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	reason, err := CheckStale(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reason == "" {
		t.Fatal("mutated handlers.go but the gate stayed green")
	}
	if !strings.Contains(reason, "internal/core/handlers.go") {
		t.Errorf("stale reason does not name the changed source: %q", reason)
	}
	if !strings.Contains(reason, "ccmodel -write") {
		t.Errorf("stale reason does not say how to fix it: %q", reason)
	}
	const unchanged = "rules, handlers and messages unchanged"
	if !strings.Contains(reason, unchanged) {
		t.Errorf("a comment-only drift must report the model itself unchanged: %q", reason)
	}

	// A committed artifact whose rules differ from the fresh extraction is
	// stale without that reassurance.
	committed, _, err := LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed.Rules = committed.Rules[1:]
	b, err := committed.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ArtifactPath), b, 0o644); err != nil {
		t.Fatal(err)
	}
	reason, err = CheckStale(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reason == "" || strings.Contains(reason, unchanged) {
		t.Errorf("artifact with a rule removed: stale reason = %q", reason)
	}

	// A missing artifact is also stale, with its own actionable message.
	if err := os.Remove(filepath.Join(dir, ArtifactPath)); err != nil {
		t.Fatal(err)
	}
	reason, err = CheckStale(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reason, "no committed") {
		t.Errorf("missing artifact reason = %q", reason)
	}
}
