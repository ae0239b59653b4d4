package memaddr

import (
	"testing"
	"testing/quick"

	"ccnuma/internal/config"
)

func space(t *testing.T, mutate func(*config.Config)) *Space {
	t.Helper()
	cfg := config.Base()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewSpace(&cfg)
}

func TestAllocRoundRobinPlacement(t *testing.T) {
	s := space(t, nil)
	base := s.Alloc(4 * 4096)
	if base%4096 != 0 {
		t.Fatalf("base %#x not page aligned", base)
	}
	for i := 0; i < 4; i++ {
		want := i % 16
		if got := s.Home(base + Addr(i*4096)); got != want {
			t.Errorf("page %d home = %d, want %d", i, got, want)
		}
	}
	// A second allocation continues the rotation.
	b2 := s.Alloc(4096)
	if got := s.Home(b2); got != 4 {
		t.Errorf("next allocation home = %d, want 4", got)
	}
}

func TestAllocFirstTouch(t *testing.T) {
	s := space(t, func(c *config.Config) { c.Placement = config.PlaceFirstTouch })
	base := s.Alloc(4096)
	if got := s.Home(base); got != -1 {
		t.Fatalf("untouched page has home %d, want -1", got)
	}
	if got := s.HomeOrAssign(base, 7); got != 7 {
		t.Fatalf("first touch assigned %d, want 7", got)
	}
	// Subsequent touches keep the original assignment.
	if got := s.HomeOrAssign(base, 3); got != 7 {
		t.Fatalf("second touch reassigned to %d, want 7", got)
	}
}

func TestAllocOnNode(t *testing.T) {
	s := space(t, nil)
	base := s.AllocOnNode(3*4096, 9)
	for i := 0; i < 3; i++ {
		if got := s.Home(base + Addr(i*4096)); got != 9 {
			t.Errorf("page %d home = %d, want 9", i, got)
		}
	}
}

func TestAllocPlaced(t *testing.T) {
	s := space(t, nil)
	base := s.AllocPlaced(4*4096, func(p int) int { return (p * 2) % 16 })
	for i := 0; i < 4; i++ {
		if got := s.Home(base + Addr(i*4096)); got != (i*2)%16 {
			t.Errorf("page %d home = %d, want %d", i, got, (i*2)%16)
		}
	}
}

func TestNullPageUnmapped(t *testing.T) {
	s := space(t, nil)
	if got := s.Home(0); got != -1 {
		t.Fatalf("null page has home %d", got)
	}
	if base := s.Alloc(1); base < 4096 {
		t.Fatalf("first allocation %#x overlaps the null page", base)
	}
}

func TestLineAndBankMapping(t *testing.T) {
	s := space(t, nil)
	if got := s.Line(0x1234); got != 0x1200+0x00 {
		// 0x1234 with 128-byte lines -> 0x1200 | (0x34 &^ 0x7f) = 0x1200.
		t.Fatalf("Line(0x1234) = %#x", got)
	}
	if got := s.LineOffset(0x1234); got != 0x34 {
		t.Fatalf("LineOffset = %#x, want 0x34", got)
	}
	// Consecutive lines map to consecutive banks modulo MemBanks.
	for i := 0; i < 8; i++ {
		addr := Addr(0x10000 + i*128)
		if got := s.Bank(addr); got != i%4 {
			t.Errorf("Bank(line %d) = %d, want %d", i, got, i%4)
		}
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	s := space(t, nil)
	type region struct{ base, end Addr }
	var regions []region
	for _, n := range []int{1, 4096, 4097, 100000, 128} {
		b := s.Alloc(n)
		regions = append(regions, region{b, b + Addr(n)})
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.base < b.end && b.base < a.end {
				t.Fatalf("regions %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

// Property: Line is idempotent, offset-consistent, and bank assignment only
// depends on the line.
func TestLineProperties(t *testing.T) {
	s := space(t, nil)
	f := func(a uint32) bool {
		addr := Addr(a)
		line := s.Line(addr)
		if s.Line(line) != line {
			return false
		}
		if line+Addr(s.LineOffset(addr)) != addr {
			return false
		}
		return s.Bank(addr) == s.Bank(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPanicsOnBadInput(t *testing.T) {
	s := space(t, nil)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero alloc", func() { s.Alloc(0) })
	mustPanic("bad node", func() { s.AllocOnNode(4096, 99) })
	mustPanic("bad placed home", func() {
		s.AllocPlaced(4096, func(int) int { return 1000 })
	})
}

// TestHomePastLastAllocation checks the page-indexed home table at its
// edges: a page past the last allocation reads unassigned, HomeOrAssign
// still assigns it, and a later allocation covering that page keeps the
// assignment, as it keeps every first-touch assignment.
func TestHomePastLastAllocation(t *testing.T) {
	s := space(t, func(c *config.Config) { c.Placement = config.PlaceFirstTouch })
	base := s.Alloc(4096)
	past := base + 8*4096
	if got := s.Home(past); got != -1 {
		t.Fatalf("page past the last allocation has home %d, want -1", got)
	}
	if got := s.HomeOrAssign(past, 5); got != 5 {
		t.Fatalf("HomeOrAssign past the last allocation = %d, want 5", got)
	}
	if got := s.Home(past); got != 5 {
		t.Fatalf("assigned page reads home %d, want 5", got)
	}
	if got := s.Home(past - 4096); got != -1 {
		t.Fatalf("page between the allocation and the assigned page has home %d, want -1", got)
	}
	next := s.Alloc(16 * 4096)
	if next > past || past >= next+16*4096 {
		t.Fatalf("allocation [%#x,+16 pages) does not cover %#x", next, past)
	}
	if got := s.Home(past); got != 5 {
		t.Fatalf("allocation over an assigned page reset its home to %d, want 5", got)
	}
}
