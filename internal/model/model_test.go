package model

import (
	"reflect"
	"strings"
	"testing"

	"ccnuma/internal/extract"
	"ccnuma/internal/interconnect"
	"ccnuma/internal/protocol"
	"ccnuma/internal/verify"
)

// loadIndex loads the committed artifact's index (freshness is asserted
// separately by the extract package's gate test).
func loadIndex(t *testing.T) *extract.Index {
	t.Helper()
	m, _, err := extract.LoadArtifact("../..")
	if err != nil {
		t.Fatalf("no committed model artifact: %v (run `ccmodel -write`)", err)
	}
	return m.Index()
}

// TestFixpoints is the issue's core acceptance: every configuration in
// the table — including four nodes with the finite-buffer NACK/backoff
// edges — must exhaust its reachable state space with zero violations.
func TestFixpoints(t *testing.T) {
	ix := loadIndex(t)
	for _, tc := range []struct {
		cfg       Config
		minStates uint64
	}{
		{Config{Nodes: 2, Lines: 1}, 50},
		{Config{Nodes: 3, Lines: 1}, 500},
		{Config{Nodes: 4, Lines: 1}, 10_000},
		{Config{Nodes: 2, Lines: 1, Robust: true}, 100},
		{Config{Nodes: 4, Lines: 1, Robust: true}, 100_000},
		{Config{Nodes: 2, Lines: 2, POR: true}, 1_000},
	} {
		tc := tc
		res, err := Check(tc.cfg, ix)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s", res)
		for i := range res.Violations {
			t.Errorf("violation: %s", res.Violations[i].String())
		}
		if !res.Fixpoint {
			t.Errorf("%+v: no fixpoint within %d states", tc.cfg, tc.cfg.withDefaults().MaxStates)
		}
		if res.States < tc.minStates {
			t.Errorf("%+v: only %d states reached, want >= %d (exploration collapsed?)", tc.cfg, res.States, tc.minStates)
		}
		if res.Depth <= 0 || res.Transitions <= res.States {
			t.Errorf("%+v: implausible exploration: %s", tc.cfg, res)
		}
	}
}

// TestRobustReachesNACKs requires the robust exploration to actually be
// larger than the non-robust one — i.e. the NACK/backoff/retry edges
// contribute reachable states rather than being dead configuration.
func TestRobustReachesNACKs(t *testing.T) {
	ix := loadIndex(t)
	base, err := Check(Config{Nodes: 3, Lines: 1}, ix)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := Check(Config{Nodes: 3, Lines: 1, Robust: true}, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Fixpoint || !robust.Fixpoint {
		t.Fatalf("expected fixpoints: base=%s robust=%s", base, robust)
	}
	if robust.States <= base.States {
		t.Errorf("robust exploration (%d states) not larger than base (%d)", robust.States, base.States)
	}
}

// TestPORSoundAndEffective runs the two-line machine with and without
// the partial-order reduction: both must reach a violation-free
// fixpoint, and the reduced run must visit strictly fewer states while
// reporting the transitions it pruned.
func TestPORSoundAndEffective(t *testing.T) {
	ix := loadIndex(t)
	full, err := Check(Config{Nodes: 2, Lines: 2}, ix)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Check(Config{Nodes: 2, Lines: 2, POR: true}, ix)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full: %s", full)
	t.Logf("por:  %s", red)
	if !full.Fixpoint || len(full.Violations) > 0 {
		t.Fatalf("full exploration failed: %s", full)
	}
	if !red.Fixpoint || len(red.Violations) > 0 {
		t.Fatalf("reduced exploration failed: %s", red)
	}
	if red.Reductions == 0 {
		t.Error("POR pruned nothing")
	}
	if red.States >= full.States {
		t.Errorf("POR visited %d states, full visited %d — no reduction", red.States, full.States)
	}
}

// TestStateBound pins the MaxStates cap: a tiny budget must stop the
// exploration without a fixpoint claim and without violations.
func TestStateBound(t *testing.T) {
	res, err := Check(Config{Nodes: 4, Lines: 1, MaxStates: 500}, loadIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fixpoint {
		t.Error("capped run claimed a fixpoint")
	}
	if len(res.Violations) > 0 {
		t.Errorf("capped run reported violations: %s", res)
	}
	if res.States < 500 || res.States > 600 {
		t.Errorf("capped run visited %d states, want ~500", res.States)
	}
}

// TestConfigValidation pins the config guard rails.
func TestConfigValidation(t *testing.T) {
	ix := loadIndex(t)
	for _, cfg := range []Config{
		{Nodes: 1, Lines: 1},
		{Nodes: maxNodes + 1, Lines: 1},
		{Nodes: 2, Lines: maxLines + 1},
	} {
		if _, err := Check(cfg, ix); err == nil {
			t.Errorf("Check accepted invalid config %+v", cfg)
		}
	}
}

// TestUnmodeledTransitionDetected seeds a drift: with the clean-home-read
// rule deleted from the index, the checker must report the very first
// dispatch of that rule as an unmodeled transition, with a trace.
func TestUnmodeledTransitionDetected(t *testing.T) {
	ix := loadIndex(t)
	delete(ix.Rules, extract.RuleKey{Trigger: "msg:ReadReq", Handler: "HRemoteReadHomeClean"})
	res, err := Check(Config{Nodes: 2, Lines: 1}, ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("deleting a rule from the index went undetected")
	}
	v := res.Violations[0]
	if v.Kind != "unmodeled-transition" {
		t.Errorf("violation kind = %s, want unmodeled-transition", v.Kind)
	}
	if !strings.Contains(v.Detail, "HRemoteReadHomeClean") {
		t.Errorf("violation does not name the missing handler: %s", v.Detail)
	}
	if len(v.Trace) == 0 {
		t.Error("violation carries no trace")
	}
}

// TestUnmodeledSendDetected seeds the other drift direction: the rule
// still admits the dispatch but its DataShared send is stripped (and the
// type removed from the deferred set), so the grant must surface as an
// unmodeled send.
func TestUnmodeledSendDetected(t *testing.T) {
	ix := loadIndex(t)
	for _, rules := range ix.Rules {
		for _, r := range rules {
			kept := r.Sends[:0]
			for _, s := range r.Sends {
				if s.Type != "DataShared" {
					kept = append(kept, s)
				}
			}
			r.Sends = kept
		}
	}
	delete(ix.Deferred, "DataShared")
	res, err := Check(Config{Nodes: 2, Lines: 1}, ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("stripping every DataShared send went undetected")
	}
	if res.Violations[0].Kind != "unmodeled-send" {
		t.Errorf("violation kind = %s, want unmodeled-send", res.Violations[0].Kind)
	}
}

// TestConformance is the issue's replay acceptance: the default concrete
// runs (including a robust one with forced NACKs) must validate at least
// a thousand transitions against the extracted model without a failure.
func TestConformance(t *testing.T) {
	c, err := RunConformance(loadIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dispatches=%d sends=%d", c.Dispatches, c.Sends)
	for _, f := range c.Failures {
		t.Errorf("conformance: %s", f)
	}
	if c.Events() < 1000 {
		t.Errorf("validated only %d events, want >= 1000", c.Events())
	}
	if c.Dispatches == 0 || c.Sends == 0 {
		t.Error("one event class never fired; the hook is not wired through both paths")
	}
}

// TestConformanceCatchesLostGrant drops the first DataExcl grant of the
// default 4-node storm. Without the reliable link the requester waits
// forever, the engine drains anyway, and the harness must report the
// truncated storm instead of passing the prefix it validated.
func TestConformanceCatchesLostGrant(t *testing.T) {
	dropped := false
	drop := func(src, dst int, payload interface{}) interconnect.Decision {
		if msg, ok := payload.(*protocol.Msg); ok && msg.Type == protocol.MsgDataExcl && !dropped {
			dropped = true
			return interconnect.Decision{Drop: true}
		}
		return interconnect.Decision{}
	}
	vc := DefaultConformanceConfigs[1]
	if vc.Robust {
		t.Fatalf("storm %+v is robust; a dropped frame would be retransmitted", vc)
	}
	err := NewConformance(loadIndex(t)).run(vc, drop)
	if !dropped {
		t.Fatal("the storm sent no DataExcl grant to drop")
	}
	if err == nil || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("storm with a lost grant: err = %v, want a deadlock report", err)
	}
}

// TestConformanceDetectsDrift cripples the index (no rules, no deferred
// sends) and requires the replay to report failures rather than pass
// vacuously.
func TestConformanceDetectsDrift(t *testing.T) {
	m, _, err := extract.LoadArtifact("../..")
	if err != nil {
		t.Fatal(err)
	}
	ix := m.Index()
	ix.Rules = map[extract.RuleKey][]*extract.Rule{}
	ix.Deferred = map[string]bool{}
	c, err := RunConformance(ix, ConformanceConfig{Nodes: 2, Lines: 1, Ops: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Failures) == 0 {
		t.Fatal("an empty rule table validated a concrete run")
	}
}

// TestReplaysConform runs every concrete check `make check` runs — the
// storms, the 2x1 state-space walk with its races, and the single-fault
// sweep — under one hook. None may fail, and together they must reach at
// least 40 of the model's 46 dispatchable rule keys. Four of those only
// the replays reach: the "bus read excl." handlers entered from an
// Upgrade, and a NACK answering a shared grant. Two only the storm with
// two processors per node reaches: a home op still open when a sibling's
// fetch or invalidation for the line arrives requeues it.
func TestReplaysConform(t *testing.T) {
	c, err := RunConformance(loadIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	vc := verify.Config{Nodes: 2, ProcsPerNode: 1, Conform: c}
	res, err := verify.Run(vc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("replay violation: %s", v.String())
	}
	sw, err := verify.SweepSingleFaults(vc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sw.Violations {
		t.Errorf("fault not recovered: %s", v.String())
	}
	t.Logf("%s", c)
	for _, f := range c.Failures {
		t.Errorf("conformance: %s", f)
	}
	reached, total := c.Coverage()
	if reached < 40 || total != 46 {
		t.Errorf("reached %d of %d rule keys, want >= 40 of 46", reached, total)
	}
	if missed := c.unreached(); len(missed) != total-reached {
		t.Errorf("the report lists %d unreached keys, want %d: %v", len(missed), total-reached, missed)
	}
	for _, k := range []extract.RuleKey{
		{Trigger: "bus:Upgrade/local", Handler: "HBusReadExLocalCachedRemote"},
		{Trigger: "bus:Upgrade/local", Handler: "HBusReadExLocalDirtyRemote"},
		{Trigger: "bus:Upgrade/remote", Handler: "HBusReadExRemote"},
		{Trigger: "msg:DataShared", Handler: "HNackAtRequester"},
		{Trigger: "msg:FetchReq", Handler: "HBusyRequeue"},
		{Trigger: "msg:Inval", Handler: "HBusyRequeue"},
	} {
		if !c.reached[k] {
			t.Errorf("no validated dispatch of %s as %s", k.Trigger, k.Handler)
		}
	}
}

// TestReplayReportIndependentOfJobs replays the walk, its races and the
// fault sweep serially and on two workers against an index missing every
// message-triggered rule and every deferred send, so the hook records
// more distinct failures than it keeps (24 against 16) as well as counts
// and coverage. The two reports must be identical.
func TestReplayReportIndependentOfJobs(t *testing.T) {
	report := func(jobs int) (*verify.Result, *verify.SweepResult, *Conformance) {
		ix := loadIndex(t)
		for k := range ix.Rules {
			if strings.HasPrefix(k.Trigger, "msg:") {
				delete(ix.Rules, k)
			}
		}
		ix.Deferred = map[string]bool{}
		c := NewConformance(ix)
		vc := verify.Config{Nodes: 2, ProcsPerNode: 1, MaxRaces: 500, Jobs: jobs, Conform: c}
		res, err := verify.Run(vc)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := verify.SweepSingleFaults(vc)
		if err != nil {
			t.Fatal(err)
		}
		return res, sw, c
	}
	res1, sw1, c1 := report(1)
	res2, sw2, c2 := report(2)
	if len(c1.Failures) < maxFailures {
		t.Fatalf("the crippled index produced %d failures, want the cap of %d", len(c1.Failures), maxFailures)
	}
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(sw1, sw2) {
		t.Errorf("results differ between -jobs 1 and 2:\n%+v %+v\n%+v %+v", res1, sw1, res2, sw2)
	}
	if c1.String() != c2.String() || !reflect.DeepEqual(c1.Failures, c2.Failures) {
		t.Errorf("conformance differs between -jobs 1 and 2:\n%s %q\n%s %q", c1, c1.Failures, c2, c2.Failures)
	}
}
