package config

import (
	"strings"
	"testing"
)

func TestBaseValidates(t *testing.T) {
	c := Base()
	if err := c.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}

func TestBaseMatchesPaperParameters(t *testing.T) {
	c := Base()
	if c.Nodes != 16 || c.ProcsPerNode != 4 {
		t.Errorf("geometry %dx%d, want 16x4", c.Nodes, c.ProcsPerNode)
	}
	if c.LineSize != 128 {
		t.Errorf("line size %d, want 128", c.LineSize)
	}
	if c.L1Size != 16*1024 || c.L2Size != 1024*1024 {
		t.Errorf("cache sizes L1=%d L2=%d", c.L1Size, c.L2Size)
	}
	if c.NetLatency != 14 {
		t.Errorf("network latency %d cycles, want 14 (70 ns)", c.NetLatency)
	}
	if c.MemAccess != 20 {
		t.Errorf("memory access %d, want 20", c.MemAccess)
	}
	if c.AddrStrobe != 4 {
		t.Errorf("address strobe %d, want 4", c.AddrStrobe)
	}
	if c.DirCacheEntries != 8192 {
		t.Errorf("dir cache entries %d, want 8192", c.DirCacheEntries)
	}
}

func TestDefaultCostsTable2Assumptions(t *testing.T) {
	costs := DefaultCosts()
	// HWC on-chip register accesses take one system cycle (2 CPU cycles).
	for _, op := range []SubOp{OpReadBusReg, OpWriteBusReg, OpReadNIReg, OpWriteNIReg} {
		if got := costs.Cost(HWC, op); got != 2 {
			t.Errorf("HWC %v = %d, want 2", op, got)
		}
	}
	// PP reads of off-chip registers take 8 CPU cycles, writes 4.
	if got := costs.Cost(PPC, OpReadBusReg); got != 8 {
		t.Errorf("PPC read bus reg = %d, want 8", got)
	}
	if got := costs.Cost(PPC, OpWriteBusReg); got != 4 {
		t.Errorf("PPC write bus reg = %d, want 4", got)
	}
	// The MSHR probe is a cached software-table search for the PP: cheaper
	// than an off-chip read plus search, costlier than a plain load.
	if got := costs.Cost(PPC, OpAssocSearch); got < 4 || got > costs.Cost(PPC, OpReadBusReg)+2 {
		t.Errorf("PPC assoc search = %d, want within [4, read+2]", got)
	}
	// HWC folds bit operations and conditions into other actions.
	if costs.Cost(HWC, OpBitField) != 0 || costs.Cost(HWC, OpCondition) != 0 {
		t.Error("HWC bit/condition ops should be free")
	}
	// PPC pays for every sub-operation.
	for op := SubOp(0); op < numSubOps; op++ {
		if costs.Cost(PPC, op) <= 0 {
			t.Errorf("PPC %v should have positive cost", op)
		}
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		frag   string
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"non-pow2 nodes", func(c *Config) { c.Nodes = 12; c.Topology = TopoMesh2D }, "power of two"},
		{"zero procs", func(c *Config) { c.ProcsPerNode = 0 }, "ProcsPerNode"},
		{"bad line", func(c *Config) { c.LineSize = 96 }, "LineSize"},
		{"page < line", func(c *Config) { c.PageSize = 64 }, "PageSize"},
		{"l1 geometry", func(c *Config) { c.L1Size = 1000 }, "L1"},
		{"banks", func(c *Config) { c.MemBanks = 0 }, "MemBanks"},
		{"livelock", func(c *Config) { c.LivelockLimit = 0 }, "LivelockLimit"},
	}
	for _, tc := range cases {
		c := Base()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestWithArch(t *testing.T) {
	base := Base()
	for _, name := range Architectures {
		c, err := base.WithArch(name)
		if err != nil {
			t.Fatalf("WithArch(%s): %v", name, err)
		}
		if c.ArchName() != name {
			t.Errorf("ArchName = %s, want %s", c.ArchName(), name)
		}
	}
	if _, err := base.WithArch("XYZ"); err == nil {
		t.Error("expected error for unknown architecture")
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := Base()
	// 128B line + 8B header over 32B flits = 5 flits.
	if got := c.LineDataFlits(); got != 5 {
		t.Errorf("LineDataFlits = %d, want 5", got)
	}
	if got := c.ControlFlits(); got != 1 {
		t.Errorf("ControlFlits = %d, want 1", got)
	}
	// 128B over a 16B-wide 100MHz bus = 8 bus cycles = 16 CPU cycles.
	if got := c.BusDataTime(); got != 16 {
		t.Errorf("BusDataTime = %d, want 16", got)
	}
	if got := c.TotalProcs(); got != 64 {
		t.Errorf("TotalProcs = %d, want 64", got)
	}
	c.LineSize = 32
	if got := c.LineDataFlits(); got != 2 {
		t.Errorf("LineDataFlits(32B) = %d, want 2", got)
	}
	if got := c.BusDataTime(); got != 4 {
		t.Errorf("BusDataTime(32B) = %d, want 4", got)
	}
}

func TestStringers(t *testing.T) {
	if HWC.String() != "HWC" || PPC.String() != "PPC" {
		t.Error("EngineKind stringer broken")
	}
	if SplitLocalRemote.String() != "local/remote" || SplitRoundRobin.String() != "round-robin" {
		t.Error("SplitPolicy stringer broken")
	}
	if ArbPaper.String() != "paper" || ArbFIFO.String() != "fifo" {
		t.Error("ArbPolicy stringer broken")
	}
	if PlaceRoundRobin.String() != "round-robin" || PlaceFirstTouch.String() != "first-touch" {
		t.Error("PlacementPolicy stringer broken")
	}
	for op := SubOp(0); op < numSubOps; op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "SubOp(") {
			t.Errorf("missing name for sub-op %d", int(op))
		}
	}
}

func TestExtensionValidation(t *testing.T) {
	c := Base()
	c.NumEngines = 4
	if err := c.Validate(); err == nil {
		t.Error("4 engines with local/remote split should be rejected")
	}
	c.Split = SplitRegion
	if err := c.Validate(); err != nil {
		t.Errorf("4 region-split engines rejected: %v", err)
	}
	if c.EngineCount() != 4 {
		t.Errorf("EngineCount = %d, want 4", c.EngineCount())
	}
	if c.ArchName() != "4PPC" && c.Engine == PPC {
		// Engine defaults to HWC in Base; set and re-check below.
		_ = c
	}
	c.Engine = PPC
	if got := c.ArchName(); got != "4PPC" {
		t.Errorf("ArchName = %s, want 4PPC", got)
	}
	c.RegionBytes = 100
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two RegionBytes should be rejected")
	}
	c.RegionBytes = 4096
	c.NumEngines = -1
	if err := c.Validate(); err == nil {
		t.Error("negative NumEngines should be rejected")
	}
}

func TestPPCACosts(t *testing.T) {
	costs := DefaultCosts()
	for op := SubOp(0); op < SubOp(NumSubOps); op++ {
		hwc, ppca, ppc := costs.Cost(HWC, op), costs.Cost(PPCA, op), costs.Cost(PPC, op)
		if ppca < hwc || ppca > ppc {
			t.Errorf("%v: PPCA cost %d outside [HWC %d, PPC %d]", op, ppca, hwc, ppc)
		}
	}
	// The dispatch and send assists must actually help.
	if costs.Cost(PPCA, OpDispatch) >= costs.Cost(PPC, OpDispatch) {
		t.Error("PPCA dispatch assist missing")
	}
	if costs.Cost(PPCA, OpSendHeader) >= costs.Cost(PPC, OpSendHeader) {
		t.Error("PPCA send assist missing")
	}
}

func TestWithArchExtended(t *testing.T) {
	base := Base()
	for _, name := range []string{"PPCA", "2PPCA"} {
		c, err := base.WithArch(name)
		if err != nil {
			t.Fatalf("WithArch(%s): %v", name, err)
		}
		if c.ArchName() != name {
			t.Errorf("ArchName = %s, want %s", c.ArchName(), name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestRegionShift(t *testing.T) {
	c := Base()
	c.RegionBytes = 4096
	if got := c.RegionShift(); got != 12 {
		t.Errorf("RegionShift = %d, want 12", got)
	}
}
