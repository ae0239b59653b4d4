package scenario

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/workload"
)

// knobExempt are the Config fields pinned elsewhere as result-neutral:
// attribution only observes the run (TestAttributionTimingInvisible in
// internal/workload), and sharding only changes how the host executes the
// event loop (TestShardGoldenExecTimes in internal/workload).
var knobExempt = map[string]bool{"Attribution": true, "SimShards": true}

// knobCase mutates one Config knob in a context where the knob matters.
type knobCase struct {
	knob string               // field name, or "Field=value" for one value of an enum field
	app  string               // test-size workload ("" = fft)
	ctx  func(*config.Config) // the context the knob needs (nil = the 4x2 HWC machine)
	set  func(*config.Config) // the mutation: a valid non-default value
}

var (
	twoEngines = func(c *config.Config) { c.NumEngines = 2 }
	regionPair = func(c *config.Config) { c.NumEngines, c.Split = 2, config.SplitRegion }
	ppc        = func(c *config.Config) { c.Engine = config.PPC }
	mesh       = func(c *config.Config) { c.Topology = config.TopoMesh2D }
	smallL2    = func(c *config.Config) { c.L2Size = 16 * 1024 }
)

// knobCases holds one entry per knob: every non-exempt Config field, and
// every non-default value of an enum field.
var knobCases = []knobCase{
	{knob: "Nodes", set: func(c *config.Config) { c.Nodes = 2 }},
	{knob: "ProcsPerNode", set: func(c *config.Config) { c.ProcsPerNode = 1 }},
	{knob: "Engine=PPC", set: func(c *config.Config) { c.Engine = config.PPC }},
	{knob: "Engine=PPCA", set: func(c *config.Config) { c.Engine = config.PPCA }},
	// fft's one- and two-engine runs coincide at this size.
	{knob: "NumEngines", app: "ocean", set: func(c *config.Config) { c.NumEngines = 2 }},
	{knob: "Split=round-robin", ctx: twoEngines, set: func(c *config.Config) { c.Split = config.SplitRoundRobin }},
	{knob: "Split=region", ctx: twoEngines, set: func(c *config.Config) { c.Split = config.SplitRegion }},
	{knob: "Split=dynamic", ctx: twoEngines, set: func(c *config.Config) { c.Split = config.SplitDynamic }},
	{knob: "Arbitration=fifo", ctx: ppc, set: func(c *config.Config) { c.Arbitration = config.ArbFIFO }},
	{knob: "NodeArchs", set: func(c *config.Config) { c.NodeArchs = []string{"HWC", "HWC", "PPC", "PPC"} }},
	{knob: "RegionBytes", ctx: regionPair, set: func(c *config.Config) { c.RegionBytes = 256 }},
	{knob: "LivelockLimit", ctx: ppc, set: func(c *config.Config) { c.LivelockLimit = 1 }},
	{knob: "LineSize", set: func(c *config.Config) { c.LineSize = 64 }},
	{knob: "L1Size", set: func(c *config.Config) { c.L1Size = 4 * 1024 }},
	{knob: "L1HitTime", set: func(c *config.Config) { c.L1HitTime = 2 }},
	// fft and ocean at this size miss only on cold and coherence misses
	// (no L2 hits), so associativity, L2 capacity and L2 timing need radix.
	{knob: "L1Assoc", app: "radix", set: func(c *config.Config) { c.L1Assoc = 1 }},
	{knob: "L2Size", app: "radix", set: func(c *config.Config) { c.L2Size = 16 * 1024 }},
	{knob: "L2Assoc", app: "radix", ctx: smallL2, set: func(c *config.Config) { c.L2Assoc = 1 }},
	{knob: "L2HitTime", app: "radix", set: func(c *config.Config) { c.L2HitTime = 12 }},
	{knob: "L2MissDetect", set: func(c *config.Config) { c.L2MissDetect = 12 }},
	{knob: "BusCycle", set: func(c *config.Config) { c.BusCycle = 4 }},
	{knob: "AddrStrobe", set: func(c *config.Config) { c.AddrStrobe = 8 }},
	{knob: "BusArb", set: func(c *config.Config) { c.BusArb = 8 }},
	{knob: "MemAccess", set: func(c *config.Config) { c.MemAccess = 30 }},
	{knob: "CacheToCache", set: func(c *config.Config) { c.CacheToCache = 24 }},
	{knob: "CriticalQuad", set: func(c *config.Config) { c.CriticalQuad = 8 }},
	{knob: "FillRestart", set: func(c *config.Config) { c.FillRestart = 20 }},
	{knob: "BusRetry", set: func(c *config.Config) { c.BusRetry = 40 }},
	{knob: "MemBanks", set: func(c *config.Config) { c.MemBanks = 1 }},
	{knob: "BankBusy", set: func(c *config.Config) { c.BankBusy = 80 }},
	{knob: "NetLatency", set: func(c *config.Config) { c.NetLatency = 50 }},
	{knob: "NetFlitBytes", set: func(c *config.Config) { c.NetFlitBytes = 16 }},
	{knob: "NetFlitTime", set: func(c *config.Config) { c.NetFlitTime = 4 }},
	{knob: "NetHeader", set: func(c *config.Config) { c.NetHeader = 40 }},
	{knob: "Topology=mesh2d", set: func(c *config.Config) { c.Topology = config.TopoMesh2D }},
	{knob: "NetHopLatency", ctx: mesh, set: func(c *config.Config) { c.NetHopLatency = 9 }},
	{knob: "DirCacheEntries", set: func(c *config.Config) { c.DirCacheEntries = 0 }},
	{knob: "DirDRAMRead", set: func(c *config.Config) { c.DirDRAMRead = 40 }},
	{knob: "DirDRAMWrite", set: func(c *config.Config) { c.DirDRAMWrite = 40 }},
	{knob: "Costs", set: func(c *config.Config) { c.Costs[config.OpDispatch][config.HWC] = 4 }},
	// fft places its arrays by hand (memaddr.AllocPlaced), so page size
	// and placement need ocean.
	{knob: "PageSize", app: "ocean", set: func(c *config.Config) { c.PageSize = 8192 }},
	{knob: "Placement=first-touch", app: "ocean", set: func(c *config.Config) { c.Placement = config.PlaceFirstTouch }},
	{knob: "BarrierCost", set: func(c *config.Config) { c.BarrierCost = 400 }},
	// Only cholesky and the water kernels take locks.
	{knob: "LockRetry", app: "cholesky", set: func(c *config.Config) { c.LockRetry = 80 }},
	// A limit below the run's length fails the run: a change.
	{knob: "SimLimit", set: func(c *config.Config) { c.SimLimit = 1000 }},
	{knob: "Robust", set: func(c *config.Config) { c.Robust = true }},
}

// TestEveryKnobChangesTheRun pins that each Config knob reaches the
// simulation: mutating it changes the run's digest (execution time plus
// every counter), or fails the run. A field without an entry fails the
// test, so a knob that changes nothing cannot be added or kept silently.
func TestEveryKnobChangesTheRun(t *testing.T) {
	base := config.Base()
	base.Nodes, base.ProcsPerNode = 4, 2

	covered := map[string]bool{}
	for _, kc := range knobCases {
		if covered[kc.knob] {
			t.Errorf("knob %s has two entries", kc.knob)
		}
		covered[kc.knob] = true
	}
	for _, knob := range requiredKnobs() {
		if !covered[knob] {
			t.Errorf("knob %s has no entry: give it a mutation that changes the run, or delete it", knob)
		}
		delete(covered, knob)
	}
	for knob := range covered {
		t.Errorf("entry %s names no Config knob", knob)
	}

	digests := map[string]string{} // memoized by cell fingerprint
	for _, kc := range knobCases {
		app := kc.app
		if app == "" {
			app = "fft"
		}
		before := base
		if kc.ctx != nil {
			kc.ctx(&before)
		}
		after := before
		kc.set(&after)
		if err := checkMutation(kc.knob, before, after); err != nil {
			t.Errorf("%s: %v", kc.knob, err)
			continue
		}
		d0, err := knobDigest(digests, before, app)
		if err != nil {
			t.Fatalf("%s: context: %v", kc.knob, err)
		}
		d1, err := knobDigest(digests, after, app)
		if err != nil {
			t.Errorf("%s: mutation: %v", kc.knob, err)
			continue
		}
		if d0 == d1 {
			t.Errorf("%s: mutating the knob left %s's execution time and every counter unchanged", kc.knob, app)
		}
	}
}

// requiredKnobs lists the entries the table must hold: each non-exempt
// Config field by name, and each enum field once per non-default value.
func requiredKnobs() []string {
	base := reflect.ValueOf(config.Base())
	var knobs []string
	for i := 0; i < base.NumField(); i++ {
		f := base.Type().Field(i)
		if knobExempt[f.Name] {
			continue
		}
		if !isEnum(f.Type) {
			knobs = append(knobs, f.Name)
			continue
		}
		for _, v := range enumValues(f.Type) {
			if v.Int() != base.Field(i).Int() {
				knobs = append(knobs, f.Name+"="+enumName(v))
			}
		}
	}
	sort.Strings(knobs)
	return knobs
}

// isEnum reports whether t is an integer enum with a scenario-document
// spelling.
func isEnum(t reflect.Type) bool {
	_, ok := reflect.New(t).Interface().(encoding.TextUnmarshaler)
	return ok && t.Kind() == reflect.Int
}

// enumValues returns every value of the enum type t, counting up from 0
// while the value's name parses back to it.
func enumValues(t reflect.Type) []reflect.Value {
	var vals []reflect.Value
	for i := int64(0); ; i++ {
		v := reflect.New(t).Elem()
		v.SetInt(i)
		text, err := v.Interface().(encoding.TextMarshaler).MarshalText()
		if err != nil {
			return vals
		}
		back := reflect.New(t)
		if back.Interface().(encoding.TextUnmarshaler).UnmarshalText(text) != nil || back.Elem().Int() != i {
			return vals
		}
		vals = append(vals, v)
	}
}

func enumName(v reflect.Value) string {
	text, _ := v.Interface().(encoding.TextMarshaler).MarshalText()
	return string(text)
}

// checkMutation requires an entry's mutation to move the field it names
// (to the value it names, for an enum) and to leave a valid machine.
func checkMutation(knob string, before, after config.Config) error {
	field, value, isValue := strings.Cut(knob, "=")
	fb := reflect.ValueOf(before).FieldByName(field)
	fa := reflect.ValueOf(after).FieldByName(field)
	if !fa.IsValid() {
		return fmt.Errorf("Config has no field %s", field)
	}
	if reflect.DeepEqual(fb.Interface(), fa.Interface()) {
		return fmt.Errorf("the mutation leaves %s at %v", field, fa.Interface())
	}
	if isValue && enumName(fa) != value {
		return fmt.Errorf("the mutation sets %s to %s, not %s", field, enumName(fa), value)
	}
	return after.Validate()
}

// knobDigest runs app at test size on cfg, through the scenario cell path,
// and returns a SHA-256 over the execution time and every named counter.
// A run that fails digests as its error.
func knobDigest(memo map[string]string, cfg config.Config, app string) (string, error) {
	cell, err := NewCell(cfg, Workload{App: app, Size: "test"})
	if err != nil {
		return "", err
	}
	if d, ok := memo[cell.Fp]; ok {
		return d, nil
	}
	m, err := machine.New(cell.Spec.Machine, app)
	if err != nil {
		return "", err
	}
	w, err := cell.NewWorkload(m.NProcs())
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if r, err := workload.Run(m, w); err != nil {
		fmt.Fprintf(h, "failed: %v\n", err)
	} else {
		fmt.Fprintf(h, "exec=%d\n", r.ExecTime)
		for _, name := range r.CounterNames() {
			fmt.Fprintf(h, "%s=%d\n", name, r.Counter(name))
		}
	}
	memo[cell.Fp] = hex.EncodeToString(h.Sum(nil))
	return memo[cell.Fp], nil
}
