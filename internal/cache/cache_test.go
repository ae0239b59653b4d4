package cache

import (
	"testing"
	"testing/quick"
)

func TestBasicInsertLookup(t *testing.T) {
	c := New(1024, 2, 128) // 4 sets, 2 ways
	if c.Sets() != 4 || c.Assoc() != 2 {
		t.Fatalf("geometry %d sets %d ways", c.Sets(), c.Assoc())
	}
	if w, st := c.Lookup(0x1000); w != NoWay || st != Invalid {
		t.Fatalf("empty cache lookup = %v, %v", w, st)
	}
	w, _, _, _ := c.Insert(0x1000, Shared)
	if got, st := c.Lookup(0x1000); got != w || st != Shared {
		t.Fatalf("lookup after insert = %v, %v; Insert placed the line in way %v", got, st, w)
	}
	c.SetState(w, Modified)
	c.SetWord(w, 7)
	if st := stateOf(c, 0x1000); st != Modified || c.Word(w) != 7 || !c.Holds(w, 0x1000) {
		t.Fatalf("after SetState and SetWord = %v, word %d", st, c.Word(w))
	}
	if st := c.Invalidate(0x1000); st != Modified {
		t.Fatalf("invalidate returned %v", st)
	}
	if st := stateOf(c, 0x1000); st != Invalid || c.Holds(w, 0x1000) {
		t.Fatalf("after invalidate = %v", st)
	}
}

// stateOf returns the state of line in c.
func stateOf(c *Cache, line uint64) State {
	_, st := c.Lookup(line)
	return st
}

func TestLRUEviction(t *testing.T) {
	c := New(512, 2, 128) // 2 sets, 2 ways; same-set stride = 2*128 = 256
	// Lines 0x0000, 0x0200, 0x0400 all map to set 0.
	c.Insert(0x0000, Shared)
	c.Insert(0x0200, Shared)
	c.Touch(0x0000) // make 0x0000 MRU; 0x0200 becomes LRU
	_, victim, st, _ := c.Insert(0x0400, Modified)
	if victim != 0x0200 || st != Shared {
		t.Fatalf("evicted %#x/%v, want 0x200/S", victim, st)
	}
	if stateOf(c, 0x0000) != Shared || stateOf(c, 0x0400) != Modified {
		t.Fatal("survivors corrupted")
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := New(512, 2, 128)
	w, _, _, _ := c.Insert(0x0000, Shared)
	again, victim, st, _ := c.Insert(0x0000, Modified)
	if victim != 0 || st != Invalid {
		t.Fatalf("re-insert evicted %#x/%v", victim, st)
	}
	if again != w {
		t.Fatalf("re-insert placed the line in way %v, want its way %v", again, w)
	}
	if stateOf(c, 0x0000) != Modified {
		t.Fatal("re-insert did not update state")
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d, want 1", c.Count())
	}
}

func TestSnoopLookupDoesNotTouchLRU(t *testing.T) {
	c := New(512, 2, 128)
	c.Insert(0x0000, Shared)
	c.Insert(0x0200, Shared)
	// Lookup (snoop) 0x0000 must NOT make it MRU.
	c.Lookup(0x0000)
	_, victim, _, _ := c.Insert(0x0400, Shared)
	if victim != 0x0000 {
		t.Fatalf("evicted %#x, want 0x0000 (Lookup must not update LRU)", victim)
	}
}

func TestSetStateOnAbsentPanics(t *testing.T) {
	c := New(512, 2, 128)
	defer func() {
		if recover() == nil {
			t.Error("SetState on an absent line's handle did not panic")
		}
	}()
	w, _ := c.Lookup(0xdead00)
	c.SetState(w, Shared)
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{{0, 1, 128}, {1000, 4, 128}, {768, 2, 128}} {
		g := g
		func() {
			defer func() { recover() }()
			New(g[0], g[1], g[2])
			t.Errorf("geometry %v did not panic", g)
		}()
	}
}

func TestLinesIteration(t *testing.T) {
	c := New(1024, 2, 128)
	want := map[uint64]State{0x1000: Shared, 0x2080: Modified, 0x3100: Exclusive}
	for l, s := range want {
		c.Insert(l, s)
	}
	got := map[uint64]State{}
	c.Lines(func(w Way, l uint64, s State) bool {
		if !c.Holds(w, l) {
			t.Errorf("Lines passed way %v for line %#x, which it does not hold", w, l)
		}
		got[l] = s
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d lines, want %d", len(got), len(want))
	}
	for l, s := range want {
		if got[l] != s {
			t.Errorf("line %#x = %v, want %v", l, got[l], s)
		}
	}
	// Early termination.
	n := 0
	c.Lines(func(Way, uint64, State) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property: occupancy never exceeds capacity, and a line just inserted is
// always present afterwards.
func TestCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(2048, 4, 128) // 4 sets * 4 ways = 16 lines max
		for _, l := range lines {
			line := uint64(l) * 128
			c.Insert(line, Shared)
			if stateOf(c, line) != Shared {
				return false
			}
			if c.Count() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an evicted victim is no longer present and came from the same
// set as the inserted line.
func TestVictimSameSetProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(1024, 2, 128) // 4 sets
		setOf := func(line uint64) uint64 { return (line / 128) % 4 }
		for _, l := range lines {
			line := uint64(l) * 128
			_, victim, st, _ := c.Insert(line, Modified)
			if st != Invalid {
				if setOf(victim) != setOf(line) {
					return false
				}
				if stateOf(c, victim) != Invalid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

// TestUnfilledSetsAllocateNothing checks lazily allocated sets: Lookup,
// Touch and Invalidate on a set that was never filled see an absent line
// and allocate nothing, only Insert gives a set its ways, and Lines visits
// sets in index order whatever order they were filled in.
func TestUnfilledSetsAllocateNothing(t *testing.T) {
	c := New(8*2*128, 2, 128) // 8 sets, 2 ways; set s holds lines s*128 + k*1024
	c.Insert(1*128, Shared)
	probe := func() {
		for s := uint64(2); s < 8; s++ {
			line := s * 128
			w, st := c.Lookup(line)
			tw, tst := c.Touch(line)
			if w != NoWay || st != Invalid || tw != NoWay || tst != Invalid || c.Invalidate(line) != Invalid {
				t.Fatalf("never-filled set %d reports line %#x present", s, line)
			}
		}
	}
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Fatalf("probing never-filled sets allocated %v times per run, want 0", n)
	}
	if len(c.ways) != c.Assoc() {
		t.Fatalf("probes gave sets ways: pool holds %d ways, want the %d of the one filled set", len(c.ways), c.Assoc())
	}

	c = New(8*2*128, 2, 128)
	var want []uint64
	for _, s := range []uint64{5, 0, 7, 2} {
		for k := uint64(0); k < 2; k++ {
			c.Insert(s*128+k*1024, Exclusive)
		}
	}
	for _, s := range []uint64{0, 2, 5, 7} {
		want = append(want, s*128, s*128+1024)
	}
	var got []uint64
	c.Lines(func(_ Way, line uint64, _ State) bool { got = append(got, line); return true })
	if len(got) != len(want) {
		t.Fatalf("Lines visited %#x, want %#x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lines visited %#x, want %#x (set index order)", got, want)
		}
	}
}
