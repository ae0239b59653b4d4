package memaddr

import (
	"testing"

	"ccnuma/internal/config"
)

// fuzzConfig derives a valid geometry from raw fuzz bytes (or skips).
func fuzzConfig(t *testing.T, lineExp, pageExp, banks, nodes uint8) *config.Config {
	t.Helper()
	c := config.Base()
	c.LineSize = 1 << (4 + int(lineExp)%6)        // 16..512 bytes
	c.PageSize = c.LineSize << (int(pageExp) % 5) // 1x..16x the line
	c.MemBanks = 1 + int(banks)%8
	c.Nodes = 1 << (int(nodes) % 5) // 1..16, power of two for all topologies
	if err := c.Validate(); err != nil {
		t.Skip(err)
	}
	return &c
}

// FuzzLineBankMapping checks the address-decomposition invariants for
// arbitrary addresses under arbitrary valid geometries: line alignment,
// offset round-trips, and bank stability across a line.
func FuzzLineBankMapping(f *testing.F) {
	f.Add(uint64(0x12345), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(1)<<40, uint8(5), uint8(4), uint8(7), uint8(4))
	f.Add(uint64(4096), uint8(3), uint8(2), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, addr uint64, lineExp, pageExp, banks, nodes uint8) {
		c := fuzzConfig(t, lineExp, pageExp, banks, nodes)
		s := NewSpace(c)
		line := s.Line(addr)
		if line%uint64(c.LineSize) != 0 {
			t.Fatalf("Line(%#x) = %#x is not line-aligned", addr, line)
		}
		if addr < line || addr-line >= uint64(c.LineSize) {
			t.Fatalf("addr %#x outside its own line [%#x, %#x)", addr, line, line+uint64(c.LineSize))
		}
		if got := uint64(s.LineOffset(addr)); got != addr-line {
			t.Fatalf("LineOffset(%#x) = %d, want %d", addr, got, addr-line)
		}
		if s.Line(line) != line {
			t.Fatalf("Line is not idempotent: Line(%#x) = %#x", line, s.Line(line))
		}
		b := s.Bank(addr)
		if b < 0 || b >= c.MemBanks {
			t.Fatalf("Bank(%#x) = %d out of range [0,%d)", addr, b, c.MemBanks)
		}
		// Every address within the line maps to the same bank.
		if s.Bank(line) != b || s.Bank(line+uint64(c.LineSize)-1) != b {
			t.Fatalf("bank differs within line %#x: %d vs %d vs %d",
				line, b, s.Bank(line), s.Bank(line+uint64(c.LineSize)-1))
		}
	})
}

// FuzzHomePlacementRoundTrip checks that explicit home-node placement
// survives the page mapping: every address of an AllocOnNode region
// resolves back to the requested node, allocations are page-aligned and
// non-overlapping, and homes are stable across repeated queries.
func FuzzHomePlacementRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(1), uint8(1), uint8(3))
	f.Add(uint8(3), uint8(2), uint16(9000), uint8(5), uint8(2))
	f.Add(uint8(5), uint8(4), uint16(64), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, lineExp, pageExp uint8, n uint16, node, nodes uint8) {
		c := fuzzConfig(t, lineExp, pageExp, 0, nodes)
		s := NewSpace(c)
		home := int(node) % c.Nodes
		size := 1 + int(n)%(4*c.PageSize)
		base := s.AllocOnNode(size, home)
		if base%uint64(c.PageSize) != 0 {
			t.Fatalf("AllocOnNode returned unaligned base %#x", base)
		}
		other := s.Alloc(c.PageSize)
		if other < base+uint64(size) {
			t.Fatalf("allocations overlap: [%#x,+%d) then %#x", base, size, other)
		}
		for _, off := range []uint64{0, uint64(size) / 2, uint64(size) - 1} {
			a := base + off
			if got := s.Home(a); got != home {
				t.Fatalf("Home(%#x) = %d, want %d", a, got, home)
			}
			if got := s.Home(a); got != home {
				t.Fatalf("Home(%#x) changed on re-query: %d", a, got)
			}
		}
	})
}

// FuzzLineTable checks the page-indexed line table against a map model
// under random Set and Get: lines on pages never written and past the last
// written page read zero, setting a line to zero makes it read like one
// never set, and ForEach visits exactly the non-zero lines in ascending
// order. Each op is three bytes: a selector and a 16-bit line number.
func FuzzLineTable(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{2, 1, 0, 0, 1, 0, 2, 9, 0, 1, 9, 0, 3, 0, 1, 0, 9, 0})
	f.Add(uint8(0), uint8(0), []byte{3, 0xff, 0xff, 2, 0, 0, 0, 0xfe, 0xff, 1, 0xff, 0xff, 0, 0xff, 0xff})
	f.Add(uint8(5), uint8(4), []byte{2, 40, 0, 2, 8, 0, 2, 41, 0, 1, 8, 0, 2, 7, 1, 0, 41, 0})
	f.Fuzz(func(t *testing.T, lineExp, pageExp uint8, ops []byte) {
		c := fuzzConfig(t, lineExp, pageExp, 0, 0)
		tab := NewLineTable[uint64](c)
		model := map[Addr]uint64{}
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		var maxLine Addr
		for i := 0; i+2 < len(ops); i += 3 {
			line := (Addr(ops[i+1]) | Addr(ops[i+2])<<8) * Addr(c.LineSize)
			if line > maxLine {
				maxLine = line
			}
			switch ops[i] % 4 {
			case 0: // Get, through any address within the line
				addr := line + Addr(i)%Addr(c.LineSize)
				if got := tab.Get(addr); got != model[line] {
					t.Fatalf("Get(%#x) = %#x, model has %#x", addr, got, model[line])
				}
			case 1: // Set to zero
				tab.Set(line, 0)
				delete(model, line)
			default: // Set to a non-zero value
				v := uint64(i)<<8 | uint64(ops[i]) | 1
				tab.Set(line, v)
				model[line] = v
			}
		}
		for _, past := range []Addr{maxLine + Addr(c.PageSize), maxLine + 1<<40} {
			if got := tab.Get(past); got != 0 {
				t.Fatalf("Get(%#x) past the last written page = %#x, want 0", past, got)
			}
		}
		n := 0
		prev, first := Addr(0), true
		tab.ForEach(func(line Addr, v uint64) {
			n++
			if !first && line <= prev {
				t.Fatalf("ForEach visited %#x after %#x", line, prev)
			}
			prev, first = line, false
			if v == 0 || model[line] != v {
				t.Fatalf("ForEach visited %#x = %#x, model has %#x", line, v, model[line])
			}
		})
		if n != len(model) {
			t.Fatalf("ForEach visited %d lines, model holds %d", n, len(model))
		}
	})
}
