package memaddr

import "ccnuma/internal/config"

// LineTable holds one value per line of the address space, for state that
// lives at a line's home: the memory image and the directory entries. It
// is indexed by page, and a page's lines share one chunk of
// PageSize/LineSize entries, allocated when one of them is first set to a
// value other than zero. A line never set reads as the zero value. The
// zero LineTable is unusable; create one with NewLineTable.
type LineTable[T comparable] struct {
	chunks    [][]T // page number -> the page's entries, nil until written
	lineShift uint
	pageShift uint
	lineMask  uint64 // lines per page - 1
}

// NewLineTable creates an empty table for cfg's line and page sizes, which
// must be powers of two (Config.Validate checks both).
func NewLineTable[T comparable](cfg *config.Config) LineTable[T] {
	ls, ps := log2(cfg.LineSize, "line size"), log2(cfg.PageSize, "page size")
	if ps < ls {
		panic("memaddr: page smaller than a line")
	}
	return LineTable[T]{lineShift: ls, pageShift: ps, lineMask: 1<<(ps-ls) - 1}
}

// Get returns line's value, or the zero value if it was never set.
func (t *LineTable[T]) Get(line Addr) T {
	if p := line >> t.pageShift; p < Addr(len(t.chunks)) {
		if c := t.chunks[p]; c != nil {
			return c[(line>>t.lineShift)&t.lineMask]
		}
	}
	var zero T
	return zero
}

// Set stores line's value. Setting a line of an unwritten page to zero
// allocates nothing.
func (t *LineTable[T]) Set(line Addr, v T) {
	var zero T
	p := line >> t.pageShift
	if p >= Addr(len(t.chunks)) {
		if v == zero {
			return
		}
		t.chunks = append(t.chunks, make([][]T, p+1-Addr(len(t.chunks)))...)
	}
	c := t.chunks[p]
	if c == nil {
		if v == zero {
			return
		}
		c = make([]T, t.lineMask+1)
		t.chunks[p] = c
	}
	c[(line>>t.lineShift)&t.lineMask] = v
}

// ForEach calls fn for every line whose value is not zero, in ascending
// line order.
func (t *LineTable[T]) ForEach(fn func(line Addr, v T)) {
	var zero T
	for p, c := range t.chunks {
		for i, v := range c {
			if v != zero {
				fn(Addr(p)<<t.pageShift|Addr(i)<<t.lineShift, v)
			}
		}
	}
}
