// Package cache models the set-associative, write-back, LRU caches of the
// simulated compute processors (16 KB L1 and 1 MB L2, 4-way, 128-byte lines
// in the base configuration). Each way holds a line's state and its shadow
// value: one uint64 standing for the line's data, which the processors mint
// on stores and the protocol carries between caches and memory so that the
// checkers can tell a stale copy from a current one. The workloads compute
// on their own Go memory; the shadow value is what the simulated machine
// moves. A cache allocates the ways of a set when the set is first filled,
// so building a machine costs one index entry per set.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI cache-line state.
type State uint8

const (
	// Invalid means the line is not present.
	Invalid State = iota
	// Shared means a clean copy that other caches may also hold.
	Shared
	// Exclusive means a clean copy known to be the only cached one.
	Exclusive
	// Modified means a dirty copy; the cache owns the line.
	Modified
	// Owned means a dirty copy that other caches on the same SMP bus may
	// share (it arises when a Modified line supplies a read via
	// cache-to-cache transfer without writing back to the home node).
	// The owner remains responsible for eventually writing the line back.
	Owned
)

// Dirty reports whether the state carries modified data (Modified or
// Owned).
func (s State) Dirty() bool { return s == Modified || s == Owned }

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// way is one cache way: a line address, a packed word holding the line's
// state in the high byte and its LRU stamp (higher = more recently used)
// in the low 56 bits, and the line's shadow value. Stamps come from the
// cache's access clock, which advances once per touch or insert and cannot
// reach 2^56 in any simulation, so packing never truncates a stamp.
type way struct {
	line uint64
	meta uint64
	val  uint64
}

const (
	stateShift = 56
	lruMask    = 1<<stateShift - 1
)

func (w *way) state() State { return State(w.meta >> stateShift) }

func (w *way) lru() uint64 { return w.meta & lruMask }

func (w *way) setState(st State) { w.meta = uint64(st)<<stateShift | w.meta&lruMask }

func (w *way) touch(clock uint64) { w.meta = w.meta&^lruMask | clock }

// Cache is a set-associative LRU cache. The zero value is unusable; create
// with New.
type Cache struct {
	// index maps a set to its ways: zero for a set never filled, else k+1
	// where the set's ways are ways[k*assoc : (k+1)*assoc]. Insert appends
	// a set's ways to the pool the first time it fills the set, so a run
	// pays only for the sets it touches.
	index     []int32
	ways      []way
	assoc     int
	lineShift uint
	setMask   uint64
	clock     uint64 // LRU counter
}

// New creates a cache of size bytes, assoc ways, and lineSize-byte lines.
// size must be an exact multiple of assoc*lineSize, and lineSize and the
// resulting set count must be powers of two.
func New(size, assoc, lineSize int) *Cache {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d assoc=%d line=%d", size, assoc, lineSize))
	}
	if size%(assoc*lineSize) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by assoc %d * line %d", size, assoc, lineSize))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineSize))
	}
	nsets := size / (assoc * lineSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	return &Cache{
		index:     make([]int32, nsets),
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(nsets - 1),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.index) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// setFor returns the ways of line's set, or nil if the set was never
// filled.
func (c *Cache) setFor(line uint64) []way {
	k := int(c.index[(line>>c.lineShift)&c.setMask])
	if k == 0 {
		return nil
	}
	i := (k - 1) * c.assoc
	return c.ways[i : i+c.assoc : i+c.assoc]
}

func (c *Cache) find(line uint64) *way {
	set := c.setFor(line)
	for i := range set {
		if set[i].line == line && set[i].state() != Invalid {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the state of line without updating LRU order (used by
// snoops, which should not perturb replacement).
func (c *Cache) Lookup(line uint64) State {
	if w := c.find(line); w != nil {
		return w.state()
	}
	return Invalid
}

// Peek returns the state and value of line without updating LRU order
// (Invalid and zero when the line is absent).
func (c *Cache) Peek(line uint64) (State, uint64) {
	if w := c.find(line); w != nil {
		return w.state(), w.val
	}
	return Invalid, 0
}

// Touch returns the state of line and marks it most recently used.
func (c *Cache) Touch(line uint64) State {
	if w := c.find(line); w != nil {
		c.clock++
		w.touch(c.clock)
		return w.state()
	}
	return Invalid
}

// SetState updates the state of a present line. It panics if the line is
// not present: callers must have established presence, and silently
// creating lines here would mask protocol bugs.
func (c *Cache) SetState(line uint64, st State) {
	w := c.find(line)
	if w == nil {
		panic(fmt.Sprintf("cache: SetState on absent line %#x", line))
	}
	w.setState(st)
}

// SetValue overwrites the shadow value of a present line. Like SetState it
// panics if the line is not present.
func (c *Cache) SetValue(line, v uint64) {
	w := c.find(line)
	if w == nil {
		panic(fmt.Sprintf("cache: SetValue on absent line %#x", line))
	}
	w.val = v
}

// Invalidate removes line if present and returns its prior state.
func (c *Cache) Invalidate(line uint64) State {
	if w := c.find(line); w != nil {
		st := w.state()
		w.setState(Invalid)
		return st
	}
	return Invalid
}

// Insert places line in state st, evicting the LRU way of its set if the
// set is full. It returns the victim line, its state and its value
// (victim == 0, Invalid and 0 when an empty way was used). A newly placed
// line's value is zero. Inserting a line that is already present just
// updates its state and LRU position and keeps its value.
func (c *Cache) Insert(line uint64, st State) (victim uint64, victimState State, victimValue uint64) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	c.clock++
	if w := c.find(line); w != nil {
		w.meta = uint64(st)<<stateShift | c.clock
		return 0, Invalid, 0
	}
	set := c.setFor(line)
	if set == nil {
		set = c.allocSet(line)
	}
	// Prefer an invalid way; otherwise evict the least recently used.
	victimIdx := 0
	for i := range set {
		if set[i].state() == Invalid {
			victimIdx = i
			goto place
		}
		if set[i].lru() < set[victimIdx].lru() {
			victimIdx = i
		}
	}
	victim, victimState, victimValue = set[victimIdx].line, set[victimIdx].state(), set[victimIdx].val
place:
	set[victimIdx] = way{line: line, meta: uint64(st)<<stateShift | c.clock}
	return victim, victimState, victimValue
}

// allocSet appends empty ways for line's set to the pool and returns them.
func (c *Cache) allocSet(line uint64) []way {
	c.ways = append(c.ways, make([]way, c.assoc)...)
	k := len(c.ways) / c.assoc
	c.index[(line>>c.lineShift)&c.setMask] = int32(k)
	i := (k - 1) * c.assoc
	return c.ways[i : i+c.assoc : i+c.assoc]
}

// Lines calls fn for every valid line in the cache. Iteration order is
// set-major, in set index order, and deterministic. If fn returns false
// iteration stops.
func (c *Cache) Lines(fn func(line uint64, st State) bool) {
	for _, k := range c.index {
		if k == 0 {
			continue
		}
		i := (int(k) - 1) * c.assoc
		for _, w := range c.ways[i : i+c.assoc] {
			if st := w.state(); st != Invalid {
				if !fn(w.line, st) {
					return
				}
			}
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.Lines(func(uint64, State) bool { n++; return true })
	return n
}
