package scenario

import (
	"fmt"
	"testing"

	"ccnuma/internal/config"
)

// FuzzLoadBytes drives the scenario boundary — LoadBytes, then Validate,
// then Cells — with arbitrary documents. No input may panic, and every
// cell the pipeline accepts, sweep values applied, must describe a machine
// inside the config package's size limits: nothing that passes validation
// may make machine.New allocate without bound. The committed corpus holds
// the example scenarios and one oversized document per limit.
func FuzzLoadBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := LoadBytes(doc)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		cells, err := s.Cells()
		if err != nil {
			return
		}
		for _, c := range cells {
			if err := withinLimits(&c.Spec.Machine); err != nil {
				t.Fatalf("accepted cell %s (arch %q, value %d): %v", c.Fp, c.Arch, c.Value, err)
			}
		}
	})
}

// withinLimits restates the config size limits independently of Validate.
func withinLimits(m *config.Config) error {
	lines := uint64(m.L1Size/m.LineSize) + uint64(m.L2Size/m.LineSize)
	switch {
	case m.Nodes > config.MaxNodes:
		return fmt.Errorf("%d nodes", m.Nodes)
	case m.ProcsPerNode > config.MaxProcsPerNode:
		return fmt.Errorf("%d processors per node", m.ProcsPerNode)
	case m.MaxEngineCount() > config.MaxEngines:
		return fmt.Errorf("%d engines on one controller", m.MaxEngineCount())
	case m.MemBanks > config.MaxMemBanks:
		return fmt.Errorf("%d memory banks", m.MemBanks)
	case m.DirCacheEntries > config.MaxDirCacheEntries:
		return fmt.Errorf("%d directory-cache entries", m.DirCacheEntries)
	case lines > config.MaxCacheLines/uint64(m.TotalProcs()):
		return fmt.Errorf("%d processors with %d cache lines each", m.TotalProcs(), lines)
	}
	return nil
}
