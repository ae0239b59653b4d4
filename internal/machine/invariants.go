package machine

import (
	"fmt"

	"ccnuma/internal/cache"
	"ccnuma/internal/directory"
	"ccnuma/internal/smpbus"
)

// CheckCoherence validates the global coherence invariants on a quiesced
// machine (no in-flight transactions): each processor's L1 is included in
// its L2, every L1 line linking the L2 way that holds it; each bus's
// presence bits name exactly the lines its processors hold in L2; every
// dirty cached line is owned by exactly one node and registered as
// DirtyRemote at its home (unless the home itself holds it), and every
// clean shared copy of a remote line is covered by the home directory.
// Stale directory sharers (nodes that silently dropped Shared copies) are
// legal; uncovered holders are not. Processors are checked in order, then
// the presence bits are walked in ascending line order, each line with
// its holders in processor order, so a machine with several bad lines
// always reports the lowest. Machine.Run calls this after every
// successful run.
func (m *Machine) CheckCoherence() error {
	for _, p := range m.Procs {
		if err := p.CheckInclusion(); err != nil {
			return fmt.Errorf("coherence: %w", err)
		}
		if err := p.CheckPresence(); err != nil {
			return fmt.Errorf("coherence: %w", err)
		}
	}
	// The buses number their snoopers node by node, as m.Procs is ordered.
	hs := make([]l2Holder, 0, len(m.Procs))
	return smpbus.EachHeld(m.Buses, func(line uint64, holders []int) error {
		hs = hs[:0]
		for _, i := range holders {
			p := m.Procs[i]
			st := p.L2State(line)
			if st == cache.Invalid {
				return fmt.Errorf("coherence: proc %d's presence bit for line %#x is set, but its L2 does not hold the line",
					p.ID(), line)
			}
			hs = append(hs, l2Holder{node: p.Node(), state: st})
		}
		return m.checkLine(line, hs)
	})
}

// checkLine validates one cached line against its holders.
func (m *Machine) checkLine(line uint64, hs []l2Holder) error {
	home := m.Space.Home(line)
	if home < 0 {
		return fmt.Errorf("coherence: cached line %#x has no home", line)
	}
	entry := m.Dirs[home].Lookup(line)

	dirtyNode := -1
	for _, h := range hs {
		if h.state.Dirty() {
			if dirtyNode >= 0 && dirtyNode != h.node {
				return fmt.Errorf("coherence: line %#x dirty in nodes %d and %d", line, dirtyNode, h.node)
			}
			dirtyNode = h.node
		}
	}
	// A dirty copy forbids clean copies outside the dirty node unless
	// the dirty state is Owned (dirty-shared within one node is legal,
	// and Owned lines may have Shared copies in other nodes only if
	// the directory knows — which DirtyRemote precludes). Modified
	// must be globally exclusive.
	for _, h := range hs {
		if dirtyNode >= 0 && h.node != dirtyNode {
			if anyModified(hs) {
				return fmt.Errorf("coherence: line %#x cached in node %d while Modified in node %d",
					line, h.node, dirtyNode)
			}
		}
	}

	for _, h := range hs {
		if h.node == home {
			continue // the home's own caches are covered by bus snooping
		}
		switch {
		case h.state.Dirty():
			if entry.State != directory.DirtyRemote || entry.Owner != h.node {
				return fmt.Errorf("coherence: line %#x dirty (%v) in node %d but home %d records %v/owner=%d",
					line, h.state, h.node, home, entry.State, entry.Owner)
			}
		default: // Shared or Exclusive copy of a remote line
			covered := (entry.State == directory.SharedRemote && entry.Sharers.Has(h.node)) ||
				(entry.State == directory.DirtyRemote && entry.Owner == h.node)
			if !covered {
				return fmt.Errorf("coherence: line %#x held %v by node %d but home %d records %v (sharers=%b owner=%d)",
					line, h.state, h.node, home, entry.State, entry.Sharers, entry.Owner)
			}
		}
	}
	// DirtyRemote entries must be backed by an actual dirty copy at
	// the owner (otherwise a write-back was lost).
	if entry.State == directory.DirtyRemote {
		found := false
		for _, h := range hs {
			if h.node == entry.Owner && h.state.Dirty() {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("coherence: home %d records line %#x DirtyRemote at node %d but no dirty copy exists",
				home, line, entry.Owner)
		}
	}
	return nil
}

// l2Holder is one cache's view of a line during the coherence sweep: the
// node of the processor holding it, and its state.
type l2Holder struct {
	node  int
	state cache.State
}

func anyModified(hs []l2Holder) bool {
	for _, h := range hs {
		if h.state == cache.Modified {
			return true
		}
	}
	return false
}
