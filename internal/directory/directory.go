// Package directory implements the full-bit-map coherence directory of a
// home node: the controller-side copy held in DRAM, the write-through
// directory cache that hides DRAM latency from the protocol engines, and
// the abbreviated bus-side copy (2-bit state per line) that the bus snoop
// consults at zero protocol-engine cost.
//
// The directory tracks which REMOTE nodes cache each LOCAL line. Caching by
// the home node's own processors is covered by bus snooping at the home and
// deliberately not recorded here, exactly as in the paper's design.
package directory

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
)

// State is the stable directory state of a line.
type State uint8

const (
	// NoRemote: no remote node caches the line (the bus-side copy's
	// "uncached-remote" encoding).
	NoRemote State = iota
	// SharedRemote: one or more remote nodes hold clean copies.
	SharedRemote
	// DirtyRemote: exactly one remote node owns the line dirty.
	DirtyRemote
)

func (s State) String() string {
	switch s {
	case NoRemote:
		return "NoRemote"
	case SharedRemote:
		return "SharedRemote"
	case DirtyRemote:
		return "DirtyRemote"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Bitmap is a node-sharing vector: a full bit map of up to config.MaxNodes
// nodes, which Config.Validate enforces.
type Bitmap uint64

// Set returns the bitmap with node added.
func (b Bitmap) Set(node int) Bitmap { return b | 1<<uint(node) }

// Clear returns the bitmap with node removed.
func (b Bitmap) Clear(node int) Bitmap { return b &^ (1 << uint(node)) }

// Has reports whether node is present.
func (b Bitmap) Has(node int) bool { return b&(1<<uint(node)) != 0 }

// Count returns the number of nodes present.
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// ForEach calls fn for each set node in ascending order.
func (b Bitmap) ForEach(fn func(node int)) {
	for v := uint64(b); v != 0; {
		n := bits.TrailingZeros64(v)
		fn(n)
		v &^= 1 << uint(n)
	}
}

// Entry is one line's directory contents.
type Entry struct {
	State   State
	Sharers Bitmap // valid when State == SharedRemote
	Owner   int    // valid when State == DirtyRemote
}

// Directory is one home node's directory.
type Directory struct {
	cfg  *config.Config
	node int
	tr   *obs.Tracer // nil when tracing and attribution are off

	entries map[uint64]Entry
	// dirCache models the 8K-entry write-through directory cache. Only
	// presence/LRU matter; entry contents always come from entries.
	dirCache *cache.Cache
	// dram models contention on the controller-side directory DRAM.
	dram *sim.Resource

	hits, misses uint64
}

// New creates the directory for a home node. tr may be nil.
func New(eng *sim.Engine, cfg *config.Config, node int, tr *obs.Tracer) *Directory {
	d := &Directory{
		cfg:     cfg,
		node:    node,
		tr:      tr,
		entries: make(map[uint64]Entry),
		dram:    sim.NewResource(eng),
	}
	if cfg.DirCacheEntries > 0 {
		d.dirCache = cache.New(cfg.DirCacheEntries*cfg.LineSize, config.DirCacheAssoc, cfg.LineSize)
	}
	return d
}

// Lookup returns the entry for line without any timing side effects. This
// is the bus-side abbreviated copy: the directory access controller keeps
// it consistent, so the bus snoop reads it for free.
func (d *Directory) Lookup(line uint64) Entry {
	return d.entries[line] // zero value = NoRemote
}

// Read returns the entry and the extra latency beyond a directory-cache
// hit: zero on a hit, the (possibly queued) DRAM read latency on a miss.
// The protocol engine stalls for the extra time; the sub-operation cost of
// the cache access itself is charged separately by the handler.
func (d *Directory) Read(now sim.Time, line uint64) (Entry, sim.Time) {
	e := d.entries[line]
	if d.dirCache == nil {
		d.tr.DirAccess(now, d.node, line, false, false, e.State.String())
		start := d.dram.AcquireAt(now, d.cfg.DirDRAMRead, nil)
		return e, start - now + d.cfg.DirDRAMRead
	}
	if d.dirCache.Touch(line) != cache.Invalid {
		d.hits++
		d.tr.DirAccess(now, d.node, line, false, true, e.State.String())
		return e, 0
	}
	d.misses++
	d.tr.DirAccess(now, d.node, line, false, false, e.State.String())
	start := d.dram.AcquireAt(now, d.cfg.DirDRAMRead, nil)
	d.dirCache.Insert(line, cache.Shared)
	return e, start - now + d.cfg.DirDRAMRead
}

// Write updates the entry write-through: the in-memory state changes
// immediately, the cached copy stays valid, and the DRAM write is queued in
// the background without stalling the engine (the paper postpones directory
// updates until after responses are issued).
func (d *Directory) Write(now sim.Time, line uint64, e Entry) {
	d.tr.DirAccess(now, d.node, line, true, false, e.State.String())
	if e.State == NoRemote {
		delete(d.entries, line)
	} else {
		d.entries[line] = e
	}
	if d.dirCache != nil {
		d.dirCache.Insert(line, cache.Shared)
	}
	d.dram.AcquireAt(now, d.cfg.DirDRAMWrite, nil)
}

// ForEachEntry visits every non-NoRemote entry in ascending line order
// (deterministic regardless of map iteration order).
func (d *Directory) ForEachEntry(fn func(line uint64, e Entry)) {
	lines := make([]uint64, 0, len(d.entries))
	for line := range d.entries {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		fn(line, d.entries[line])
	}
}

// StateSnapshot renders the directory's stable state as a deterministic
// string (sorted by line) for the protocol checker's quiescent-state
// hash. Directory-cache presence and DRAM timing are deliberately excluded:
// they affect latency, never protocol behaviour.
func (d *Directory) StateSnapshot() string {
	var b strings.Builder
	d.ForEachEntry(func(line uint64, e Entry) {
		switch e.State {
		case NoRemote:
		case SharedRemote:
			fmt.Fprintf(&b, "%#x:S%x;", line, uint64(e.Sharers))
		case DirtyRemote:
			fmt.Fprintf(&b, "%#x:D%d;", line, e.Owner)
		default:
			panic(fmt.Sprintf("directory: unknown state %v for line %#x", e.State, line))
		}
	})
	return b.String()
}

// CacheHits returns directory-cache hits observed by Read.
func (d *Directory) CacheHits() uint64 { return d.hits }

// CacheMisses returns directory-cache misses observed by Read.
func (d *Directory) CacheMisses() uint64 { return d.misses }

// DRAM exposes the directory DRAM resource for utilization reports.
func (d *Directory) DRAM() *sim.Resource { return d.dram }
