package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ccnuma/internal/sim"
)

// TestValidateFieldErrorEdges drives Validate through the rejection edges
// the scenario loader depends on, checking both that the configuration is
// rejected and that the error names the offending field.
func TestValidateFieldErrorEdges(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"negative nodes", func(c *Config) { c.Nodes = -4 }, "Nodes"},
		{"negative procs", func(c *Config) { c.ProcsPerNode = -1 }, "ProcsPerNode"},
		{"zero l1 assoc", func(c *Config) { c.L1Assoc = 0 }, "L1Assoc"},
		{"negative l2 assoc", func(c *Config) { c.L2Assoc = -2 }, "L2Assoc"},
		{"zero l1 size", func(c *Config) { c.L1Size = 0 }, "L1"},
		{"negative engines", func(c *Config) { c.NumEngines = -1 }, "NumEngines"},
		{"many engines need split", func(c *Config) { c.NumEngines = 4; c.Split = SplitLocalRemote }, "Split"},
		{"region bytes", func(c *Config) { c.NumEngines = 4; c.Split = SplitRegion; c.RegionBytes = 100 }, "RegionBytes"},
		{"bad engine kind", func(c *Config) { c.Engine = EngineKind(99) }, "Engine"},
		{"negative occupancy", func(c *Config) { c.Costs[OpSendHeader][PPC] = -1 }, "Costs[sendHeader][PPC]"},
		{"zero dispatch", func(c *Config) { c.Costs[OpDispatch][HWC] = 0 }, "Costs[dispatch][HWC]"},
		{"node archs length", func(c *Config) { c.NodeArchs = []string{"HWC"} }, "NodeArchs"},
		{"node archs name", func(c *Config) {
			c.Nodes = 2
			c.NodeArchs = []string{"HWC", "XYZ"}
		}, "NodeArchs[1]"},
		{"node archs split", func(c *Config) {
			c.Nodes = 2
			c.NodeArchs = []string{"4PPC", "HWC"}
		}, "NodeArchs[0]"},
		{"nodes beyond the sharer bit map", func(c *Config) { c.Nodes = 65 }, "Nodes"},
		{"negative dir cache", func(c *Config) { c.DirCacheEntries = -1 }, "DirCacheEntries"},
		{"dir cache below one set", func(c *Config) { c.DirCacheEntries = 2 }, "DirCacheEntries"},
		{"dir cache partial set", func(c *Config) { c.DirCacheEntries = 5 }, "DirCacheEntries"},
		{"dir cache three sets", func(c *Config) { c.DirCacheEntries = 12 }, "DirCacheEntries"},
		{"l1 three sets", func(c *Config) { c.L1Size = 3 * 4 * 128 }, "L1Size"},
		{"l2 three sets", func(c *Config) { c.L2Size = 3 * 4 * 128 }, "L2Size"},
		{"negative net header", func(c *Config) { c.NetHeader = -1000 }, "NetHeader"},
		{"procs beyond the limit", func(c *Config) { c.ProcsPerNode = 1 << 20 }, "ProcsPerNode"},
		{"l2 beyond the line limit", func(c *Config) { c.L2Size = 1 << 40 }, "L2Size"},
		{"huge l1 and l2 lines", func(c *Config) { c.LineSize, c.L1Size, c.L1Assoc, c.L2Size, c.L2Assoc = 1, 1<<62, 1, 1<<62, 1 }, "L2Size"},
		{"lines across processors", func(c *Config) { c.Nodes, c.ProcsPerNode = 64, MaxProcsPerNode }, "L2Size"},
		{"dir cache beyond the limit", func(c *Config) { c.DirCacheEntries = 1 << 32 }, "DirCacheEntries"},
		{"banks beyond the limit", func(c *Config) { c.MemBanks = 1 << 30 }, "MemBanks"},
		{"engines beyond the limit", func(c *Config) { c.NumEngines = 1 << 30; c.Split = SplitRegion }, "NumEngines"},
		{"node arch engines beyond the limit", func(c *Config) {
			c.Nodes = 2
			c.Split = SplitRegion
			c.NodeArchs = []string{"HWC", fmt.Sprintf("%dPPC", MaxEngines+1)}
		}, "NodeArchs[1]"},
	}
	// Every sim.Time field is a latency, occupancy or bound: a negative
	// one must be rejected by name, including fields added later.
	timeType := reflect.TypeOf(sim.Time(0))
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).Type != timeType {
			continue
		}
		i, name := i, ct.Field(i).Name
		cases = append(cases, struct {
			name   string
			mutate func(*Config)
			field  string
		}{"negative " + name, func(c *Config) { reflect.ValueOf(c).Elem().Field(i).SetInt(-1) }, name})
	}
	for _, tc := range cases {
		c := Base()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.field)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %T is not a *FieldError", tc.name, err)
		}
	}
}

// TestValidateAcceptsLimits pins the accepting side of the size edges:
// the widest machine the sharer bit map describes, every directory-cache
// size in use (off, the ablation's 256, the paper's 8K), the largest
// machine the experiments build (64 nodes of 8 processors with 1 MB L2s),
// and each size limit itself.
func TestValidateAcceptsLimits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"64 nodes", func(c *Config) { c.Nodes = MaxNodes }},
		{"no directory cache", func(c *Config) { c.DirCacheEntries = 0 }},
		{"256 directory-cache entries", func(c *Config) { c.DirCacheEntries = 256 }},
		{"8K directory-cache entries", func(c *Config) { c.DirCacheEntries = 8192 }},
		{"64x8 with 1 MB L2s", func(c *Config) { c.Nodes, c.ProcsPerNode = 64, 8 }},
		{"MaxProcsPerNode", func(c *Config) { c.ProcsPerNode = MaxProcsPerNode }},
		{"MaxEngines", func(c *Config) { c.NumEngines, c.Split = MaxEngines, SplitRegion }},
		{"MaxEngines per node", func(c *Config) {
			c.Nodes, c.Split = 2, SplitRegion
			c.NodeArchs = []string{"HWC", fmt.Sprintf("%dPPC", MaxEngines)}
		}},
		{"MaxMemBanks", func(c *Config) { c.MemBanks = MaxMemBanks }},
		{"MaxDirCacheEntries", func(c *Config) { c.DirCacheEntries = MaxDirCacheEntries }},
		{"MaxCacheLines", func(c *Config) {
			// 512 processors whose L1 and L2 each hold a 1024th of the limit.
			c.Nodes, c.ProcsPerNode = 64, 8
			c.L1Size = MaxCacheLines / 1024 * c.LineSize
			c.L2Size = c.L1Size
		}},
	} {
		c := Base()
		tc.mutate(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", tc.name, err)
		}
	}
}

// TestFieldErrorUnwrap checks the wrapped-error contract: errors.As
// recovers the field name and Unwrap exposes the cause.
func TestFieldErrorUnwrap(t *testing.T) {
	c := Base()
	c.LineSize = 96
	err := c.Validate()
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("Validate error %T does not unwrap to *FieldError", err)
	}
	if fe.Field != "LineSize" {
		t.Errorf("FieldError.Field = %q, want LineSize", fe.Field)
	}
	if fe.Unwrap() == nil {
		t.Error("FieldError.Unwrap returned nil")
	}
	if !strings.HasPrefix(err.Error(), "config: LineSize:") {
		t.Errorf("error %q does not follow the config: <field>: format", err)
	}
}

// TestConfigJSONTagsComplete walks Config (and every in-package struct
// reachable from it) with reflection and requires a json tag on each
// exported field — the same contract the config-schema lint check
// enforces at type-check time.
func TestConfigJSONTagsComplete(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(rt reflect.Type)
	walk = func(rt reflect.Type) {
		if seen[rt] || rt.Kind() != reflect.Struct {
			return
		}
		seen[rt] = true
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			if _, ok := f.Tag.Lookup("json"); !ok {
				t.Errorf("%s.%s has no json tag; it cannot appear in a scenario document", rt.Name(), f.Name)
			}
			ft := f.Type
			for ft.Kind() == reflect.Ptr || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
				ft = ft.Elem()
			}
			if ft.PkgPath() == rt.PkgPath() {
				walk(ft)
			}
		}
	}
	walk(reflect.TypeOf(Config{}))
}

// TestConfigJSONRoundTrip serializes a configuration with every category
// of field moved off its default — geometry, enums, costs, the
// robustness switch, per-node overrides — and requires the decode to reproduce it
// exactly. This is the schema-completeness guarantee behind replay: any
// field that fails to round-trip would silently revert to a default.
func TestConfigJSONRoundTrip(t *testing.T) {
	c := Base()
	c.Nodes = 8
	c.ProcsPerNode = 2
	c.Engine = PPC
	c.NumEngines = 2
	c.Split = SplitRegion
	c.RegionBytes = 8192
	c.Arbitration = ArbFIFO
	c.Topology = TopoMesh2D
	c.NetHopLatency = 9
	c.Placement = PlaceFirstTouch
	c.NodeArchs = []string{"HWC", "HWC", "PPC", "PPC", "2HWC", "2HWC", "PPCA", "PPCA"}
	c.Costs[OpSendHeader][PPC] = 33
	c.Costs[OpDispatch][PPCA] = 7
	c = c.WithRobustness()
	c.SimLimit = 123_456

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Errorf("config did not survive the JSON round trip:\n got %+v\nwant %+v", back, c)
	}
}

// TestCostTableJSONMerge pins the overlay semantics of the Table 2 cost
// matrix: rows present in the document replace the defaults, absent rows
// inherit them, and unknown row names or malformed rows are rejected.
func TestCostTableJSONMerge(t *testing.T) {
	c := Base()
	if err := json.Unmarshal([]byte(`{"costs":{"sendHeader":[3,21,9]}}`), &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Costs.Cost(PPC, OpSendHeader); got != 21 {
		t.Errorf("overridden sendHeader[PPC] = %d, want 21", got)
	}
	def := DefaultCosts()
	if got := c.Costs.Cost(PPC, OpDispatch); got != def.Cost(PPC, OpDispatch) {
		t.Errorf("absent dispatch row did not inherit the default: got %d", got)
	}

	var ct CostTable
	if err := json.Unmarshal([]byte(`{"bogusRow":[1,2,3]}`), &ct); err == nil {
		t.Error("unknown cost row was accepted")
	}
	if err := json.Unmarshal([]byte(`{"dispatch":[1,2]}`), &ct); err == nil {
		t.Error("short cost row was accepted")
	}
}

// TestParseArch covers the count-prefixed architecture grammar shared by
// -arch, sweep archs, and per-node overrides.
func TestParseArch(t *testing.T) {
	cases := []struct {
		in    string
		kind  EngineKind
		count int
		ok    bool
	}{
		{"HWC", HWC, 1, true},
		{"PPC", PPC, 1, true},
		{"PPCA", PPCA, 1, true},
		{"2HWC", HWC, 2, true},
		{"2PPCA", PPCA, 2, true},
		{"4PPC", PPC, 4, true},
		{"16HWC", HWC, 16, true},
		{"0HWC", 0, 0, false},
		{"-2PPC", 0, 0, false},
		{"2", 0, 0, false},
		{"", 0, 0, false},
		{"XYZ", 0, 0, false},
	}
	for _, tc := range cases {
		kind, count, err := ParseArch(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseArch(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (kind != tc.kind || count != tc.count) {
			t.Errorf("ParseArch(%q) = (%v, %d), want (%v, %d)", tc.in, kind, count, tc.kind, tc.count)
		}
	}
}

// TestHeterogeneousHelpers exercises the per-node accessors on a mixed
// machine: node-level kinds and engine counts, the ragged count slice, and
// the mixed architecture name.
func TestHeterogeneousHelpers(t *testing.T) {
	c := Base()
	c.Nodes = 4
	c.NodeArchs = []string{"HWC", "2PPC", "PPC", "2PPC"}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Heterogeneous() {
		t.Error("Heterogeneous() = false for a mixed machine")
	}
	wantKinds := []EngineKind{HWC, PPC, PPC, PPC}
	wantCounts := []int{1, 2, 1, 2}
	for n := 0; n < c.Nodes; n++ {
		if k := c.NodeEngineKind(n); k != wantKinds[n] {
			t.Errorf("NodeEngineKind(%d) = %v, want %v", n, k, wantKinds[n])
		}
		if cnt := c.NodeEngineCount(n); cnt != wantCounts[n] {
			t.Errorf("NodeEngineCount(%d) = %d, want %d", n, cnt, wantCounts[n])
		}
	}
	if got := c.EngineCounts(); !reflect.DeepEqual(got, wantCounts) {
		t.Errorf("EngineCounts() = %v, want %v", got, wantCounts)
	}
	if got := c.MaxEngineCount(); got != 2 {
		t.Errorf("MaxEngineCount() = %d, want 2", got)
	}
	name := c.ArchName()
	if !strings.Contains(name, "mixed") || !strings.Contains(name, "HWC") || !strings.Contains(name, "2PPC") {
		t.Errorf("ArchName() = %q, want a mixed(...) name listing both architectures", name)
	}

	// A homogeneous NodeArchs list is not heterogeneous and keeps the
	// plain architecture name.
	c.NodeArchs = []string{"HWC", "HWC", "HWC", "HWC"}
	if c.Heterogeneous() {
		t.Error("Heterogeneous() = true for a uniform NodeArchs list")
	}
}
