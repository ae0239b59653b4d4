// Package cache models the set-associative, write-back, LRU caches of the
// simulated compute processors (16 KB L1 and 1 MB L2, 4-way, 128-byte lines
// in the base configuration). Each way holds a line, its state and one
// 64-bit word that belongs to the cache's user: in a processor's L2 it is
// the line's shadow value, one uint64 standing for the line's data, which
// the processors mint on stores and the protocol carries between caches
// and memory so that the checkers can tell a stale copy from a current
// one; in L1 it links the L2 way holding the same line; the directory
// cache leaves it unused. The workloads compute on their own Go memory;
// the shadow value is what the simulated machine moves.
//
// A lookup by line (Lookup, Touch, Insert, Invalidate) finds or places a
// way and returns a handle on it, a Way; reading and writing the way's
// state, word and recency then goes through the handle, so an access pays
// for one set search. A handle stays valid while its way holds the same
// line: once the line is evicted or invalidated the way may hold another
// line, which Holds tells. A cache places the ways of a set in its pool
// when the set is first filled, so building a machine costs one index
// entry per set. The first fill reserves room in the pool for up to
// firstSets sets, so a short run fills its first sets without regrowing
// the pool.
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

var stateNames = [...]string{"I", "S", "E", "M", "O"}

// String is small enough to inline; an unknown state's name is formatted
// out of line.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return s.unknown()
}

func (s State) unknown() string { return fmt.Sprintf("State(%d)", uint8(s)) }

// way is one cache way: a line address, a packed word holding the line's
// state in the high byte and its LRU stamp (higher = more recently used)
// in the low 56 bits, and the user's word. Stamps come from the cache's
// access clock, which advances once per touch or insert and cannot reach
// 2^56 in any simulation, so packing never truncates a stamp.
type way struct {
	line uint64
	meta uint64
	word uint64
}

const (
	stateShift = 56
	lruMask    = 1<<stateShift - 1
)

func (w *way) state() State { return State(w.meta >> stateShift) }

func (w *way) lru() uint64 { return w.meta & lruMask }

func (w *way) setState(st State) { w.meta = uint64(st)<<stateShift | w.meta&lruMask }

func (w *way) touch(clock uint64) { w.meta = w.meta&^lruMask | clock }

// Way is a handle on one way of a cache, returned by the lookups that
// find or place a line. It indexes the cache's pool of ways, which only
// grows, so a handle names the same way for the cache's lifetime; what
// the way holds changes when its line is evicted or invalidated.
type Way int32

// NoWay is the handle a lookup returns for an absent line.
const NoWay Way = -1

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

// setBase returns the pool index of the first way of line's set, or a
// negative index if the set was never filled.
func (c *Cache) setBase(line uint64) int {
	return (int(c.index[(line>>c.lineShift)&c.setMask]) - 1) * c.assoc
}

// find returns the way holding line valid, or NoWay.
func (c *Cache) find(line uint64) Way {
	i := c.setBase(line)
	if i < 0 {
		return NoWay
	}
	set := c.ways[i : i+c.assoc : i+c.assoc]
	for j := range set {
		if set[j].line == line && set[j].state() != Invalid {
			return Way(i + j)
		}
	}
	return NoWay
}

// Lookup returns the way holding line and its state without updating LRU
// order (used by snoops, which should not perturb replacement): NoWay and
// Invalid when the line is absent.
func (c *Cache) Lookup(line uint64) (Way, State) {
	w := c.find(line)
	if w == NoWay {
		return NoWay, Invalid
	}
	return w, c.ways[w].state()
}

// Touch is Lookup that also marks a present line most recently used.
func (c *Cache) Touch(line uint64) (Way, State) {
	w := c.find(line)
	if w == NoWay {
		return NoWay, Invalid
	}
	return w, c.Use(w)
}

// Invalidate removes line if present and returns its prior state.
func (c *Cache) Invalidate(line uint64) State {
	w, st := c.Lookup(line)
	if w != NoWay {
		c.ways[w].setState(Invalid)
	}
	return st
}

// Insert places line in state st, evicting the LRU way of its set if the
// set is full. It returns the way it placed the line in, and the victim
// line, its state and its word (victim == 0, Invalid and 0 when an empty
// way was used). A newly placed line's word is zero. Inserting a line that
// is already present just updates its state and LRU position in its way
// and keeps its word.
func (c *Cache) Insert(line uint64, st State) (w Way, victim uint64, victimState State, victimWord uint64) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	c.clock++
	if w = c.find(line); w != NoWay {
		c.ways[w].meta = uint64(st)<<stateShift | c.clock
		return w, 0, Invalid, 0
	}
	i := c.setBase(line)
	if i < 0 {
		i = c.allocSet(line)
	}
	set := c.ways[i : i+c.assoc : i+c.assoc]
	// Prefer an invalid way; otherwise evict the least recently used.
	victimIdx := 0
	for j := range set {
		if set[j].state() == Invalid {
			victimIdx = j
			goto place
		}
		if set[j].lru() < set[victimIdx].lru() {
			victimIdx = j
		}
	}
	victim, victimState, victimWord = set[victimIdx].line, set[victimIdx].state(), set[victimIdx].word
place:
	set[victimIdx] = way{line: line, meta: uint64(st)<<stateShift | c.clock}
	return Way(i + victimIdx), victim, victimState, victimWord
}

// firstSets is the number of sets the first fill reserves room for (all
// of them in a smaller cache).
const firstSets = 64

// allocSet appends empty ways for line's set to the pool and returns the
// pool index of the first. Sets enter the pool in fill order whatever its
// capacity, so the reservation changes no handle.
func (c *Cache) allocSet(line uint64) int {
	if c.ways == nil {
		c.ways = make([]way, 0, min(len(c.index), firstSets)*c.assoc)
	}
	c.ways = append(c.ways, make([]way, c.assoc)...)
	k := len(c.ways) / c.assoc
	c.index[(line>>c.lineShift)&c.setMask] = int32(k)
	return (k - 1) * c.assoc
}

// Holds reports whether way w holds line in a valid state: true for the
// handle a lookup of line returned until the line is evicted or
// invalidated.
func (c *Cache) Holds(w Way, line uint64) bool {
	x := &c.ways[w]
	return x.line == line && x.state() != Invalid
}

// Use marks way w most recently used and returns its state.
func (c *Cache) Use(w Way) State {
	c.clock++
	x := &c.ways[w]
	x.touch(c.clock)
	return x.state()
}

// SetState sets the state of way w, leaving its LRU position; Invalid
// removes its line.
func (c *Cache) SetState(w Way, st State) { c.ways[w].setState(st) }

// Word returns the word of way w.
func (c *Cache) Word(w Way) uint64 { return c.ways[w].word }

// SetWord overwrites the word of way w.
func (c *Cache) SetWord(w Way, x uint64) { c.ways[w].word = x }

// Lines calls fn for every valid line in the cache with its way. Iteration
// order is set-major, in set index order, and deterministic. If fn returns
// false iteration stops.
func (c *Cache) Lines(fn func(w Way, line uint64, st State) bool) {
	for _, k := range c.index {
		if k == 0 {
			continue
		}
		i := (int(k) - 1) * c.assoc
		for j, x := range c.ways[i : i+c.assoc] {
			if st := x.state(); st != Invalid {
				if !fn(Way(i+j), x.line, st) {
					return
				}
			}
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.Lines(func(Way, uint64, State) bool { n++; return true })
	return n
}
