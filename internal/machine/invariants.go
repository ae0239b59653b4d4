package machine

import (
	"cmp"
	"fmt"
	"slices"

	"ccnuma/internal/cache"
	"ccnuma/internal/directory"
)

// CheckCoherence validates the global coherence invariants on a quiesced
// machine (no in-flight transactions): each processor's L1 is included in
// its L2, every L1 line linking the L2 way that holds it; every dirty
// cached line is owned by exactly one node and registered as DirtyRemote
// at its home (unless the home itself holds it), and every clean shared
// copy of a remote line is covered by the home directory. Stale directory
// sharers (nodes that silently dropped Shared copies) are legal; uncovered
// holders are not. Processors are checked in order, then lines in
// ascending order, so a machine with several bad lines always reports the
// lowest. Machine.Run calls this after every successful run.
func (m *Machine) CheckCoherence() error {
	lines := 0
	for _, p := range m.Procs {
		lines += p.L2Lines()
	}
	held := make([]l2Holder, 0, lines)
	for i, p := range m.Procs {
		if err := p.CheckInclusion(); err != nil {
			return fmt.Errorf("coherence: %w", err)
		}
		node := p.Node()
		p.ForEachL2Line(func(line uint64, st cache.State) {
			held = append(held, l2Holder{line, node, int32(i), st})
		})
	}
	// A processor holds a line once, so (line, processor) orders every
	// holder, and each line's holders in processor order.
	slices.SortFunc(held, func(a, b l2Holder) int {
		if c := cmp.Compare(a.line, b.line); c != 0 {
			return c
		}
		return cmp.Compare(a.proc, b.proc)
	})
	for len(held) > 0 {
		n := 1
		for n < len(held) && held[n].line == held[0].line {
			n++
		}
		if err := m.checkLine(held[0].line, held[:n]); err != nil {
			return err
		}
		held = held[n:]
	}
	return nil
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
// line, the node and index of the processor holding it, and its state.
type l2Holder struct {
	line  uint64
	node  int
	proc  int32
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
