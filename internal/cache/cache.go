// Package cache models the set-associative, write-back, LRU caches of the
// simulated compute processors (16 KB L1 and 1 MB L2, 4-way, 128-byte lines
// in the base configuration). The caches are timing/state models only: data
// values live in the workload's own Go memory.
package cache

import "fmt"

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

// way is one cache way: a line address and a packed word holding the
// line's state in the high byte and its LRU stamp (higher = more recently
// used) in the low 56 bits. Stamps come from the cache's access clock,
// which advances once per touch or insert and cannot reach 2^56 in any
// simulation, so packing never truncates a stamp.
type way struct {
	line uint64
	meta uint64
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
	ways     []way // set-major: set s is ways[s*assoc : (s+1)*assoc]
	assoc    int
	lineSize uint64
	setMask  uint64
	clock    uint64 // LRU counter
}

// New creates a cache of size bytes, assoc ways, and lineSize-byte lines.
// size must be an exact multiple of assoc*lineSize and the resulting set
// count must be a power of two.
func New(size, assoc, lineSize int) *Cache {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d assoc=%d line=%d", size, assoc, lineSize))
	}
	if size%(assoc*lineSize) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by assoc %d * line %d", size, assoc, lineSize))
	}
	nsets := size / (assoc * lineSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	return &Cache{
		ways:     make([]way, nsets*assoc),
		assoc:    assoc,
		lineSize: uint64(lineSize),
		setMask:  uint64(nsets - 1),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.ways) / c.assoc }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

func (c *Cache) setFor(line uint64) []way {
	i := int((line/c.lineSize)&c.setMask) * c.assoc
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
// set is full. It returns the victim line and its state (victim == 0 and
// Invalid when an empty way was used). Inserting a line that is already
// present just updates its state and LRU position.
func (c *Cache) Insert(line uint64, st State) (victim uint64, victimState State) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	c.clock++
	if w := c.find(line); w != nil {
		w.meta = uint64(st)<<stateShift | c.clock
		return 0, Invalid
	}
	set := c.setFor(line)
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
	victim, victimState = set[victimIdx].line, set[victimIdx].state()
place:
	set[victimIdx] = way{line: line, meta: uint64(st)<<stateShift | c.clock}
	return victim, victimState
}

// Lines calls fn for every valid line in the cache. Iteration order is
// set-major and deterministic. If fn returns false iteration stops.
func (c *Cache) Lines(fn func(line uint64, st State) bool) {
	for i := range c.ways {
		if st := c.ways[i].state(); st != Invalid {
			if !fn(c.ways[i].line, st) {
				return
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
