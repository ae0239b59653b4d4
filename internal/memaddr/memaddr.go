// Package memaddr implements the simulated physical address space of the
// CC-NUMA machine: allocation of shared regions, page-granular home-node
// placement (round-robin, first-touch, or explicit hints), and the
// line/bank mappings used by the memory controllers.
package memaddr

import (
	"fmt"
	"math/bits"

	"ccnuma/internal/config"
)

// Addr is a simulated physical address.
type Addr = uint64

// Space is the machine's physical address space. It is not safe for
// concurrent use; in the simulator only one goroutine runs at a time.
type Space struct {
	cfg  *config.Config
	next Addr // next unallocated address (starts above the null page)
	// homes is the home node of each page, indexed by page number: -1 for
	// an unassigned page. Allocation is one bump upward from page 1, so the
	// slice is dense; allocPages grows it, and a page past its end is
	// unassigned.
	homes     []int
	pageShift uint
	rr        int // next node for round-robin placement
}

// NewSpace creates an empty address space for the given configuration,
// whose PageSize must be a power of two (Config.Validate checks it).
func NewSpace(cfg *config.Config) *Space {
	return &Space{
		cfg:       cfg,
		next:      Addr(cfg.PageSize), // keep page 0 unmapped to catch null addresses
		pageShift: log2(cfg.PageSize, "page size"),
	}
}

// log2 returns the exponent of a power of two, panicking on anything else.
func log2(n int, what string) uint {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("memaddr: %s %d not a power of two", what, n))
	}
	return uint(bits.TrailingZeros(uint(n)))
}

// pageOf returns the page number containing addr.
func (s *Space) pageOf(addr Addr) Addr { return addr >> s.pageShift }

// grow extends homes to cover pages below n, leaving new pages unassigned.
func (s *Space) grow(n Addr) {
	for Addr(len(s.homes)) < n {
		s.homes = append(s.homes, -1)
	}
}

// Line returns the line-aligned base address of addr.
func (s *Space) Line(addr Addr) Addr { return addr &^ Addr(s.cfg.LineSize-1) }

// LineOffset returns addr's offset within its line.
func (s *Space) LineOffset(addr Addr) int { return int(addr & Addr(s.cfg.LineSize-1)) }

// Bank returns the interleaved memory bank index (within the home node's
// memory controller) serving addr's line.
func (s *Space) Bank(addr Addr) int {
	return int(s.Line(addr)/Addr(s.cfg.LineSize)) % s.cfg.MemBanks
}

// Alloc reserves n bytes of shared memory, page-aligned, and assigns home
// nodes to its pages according to the configured placement policy. Under
// first-touch placement pages remain unassigned until first access. The
// returned base address is page-aligned.
func (s *Space) Alloc(n int) Addr {
	return s.allocPages(n, func(page int) int {
		if s.cfg.Placement == config.PlaceFirstTouch {
			return -1
		}
		h := s.rr
		s.rr = (s.rr + 1) % s.cfg.Nodes
		return h
	})
}

// AllocOnNode reserves n bytes homed entirely on one node, regardless of the
// placement policy. It is used for per-processor private regions (stacks,
// task queues) and for the paper's FFT programmer-optimized placement.
func (s *Space) AllocOnNode(n, node int) Addr {
	if node < 0 || node >= s.cfg.Nodes {
		panic(fmt.Sprintf("memaddr: AllocOnNode node %d out of range", node))
	}
	return s.allocPages(n, func(int) int { return node })
}

// AllocPlaced reserves n bytes and calls home(i) for the i-th page of the
// region to choose its home node. A negative return leaves the page to
// first-touch assignment.
func (s *Space) AllocPlaced(n int, home func(page int) int) Addr {
	return s.allocPages(n, home)
}

func (s *Space) allocPages(n int, home func(page int) int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("memaddr: allocation of %d bytes", n))
	}
	ps := Addr(s.cfg.PageSize)
	base := (s.next + ps - 1) &^ (ps - 1)
	pages := (Addr(n) + ps - 1) / ps
	s.grow(base/ps + pages)
	for i := Addr(0); i < pages; i++ {
		h := home(int(i))
		if h >= 0 {
			if h >= s.cfg.Nodes {
				panic(fmt.Sprintf("memaddr: home %d out of range", h))
			}
			s.homes[base/ps+i] = h
		}
	}
	s.next = base + pages*ps
	return base
}

// Home returns the home node of addr, or -1 if the page is still unassigned
// (first-touch placement before any access).
func (s *Space) Home(addr Addr) int {
	if page := s.pageOf(addr); page < Addr(len(s.homes)) {
		return s.homes[page]
	}
	return -1
}

// HomeOrAssign returns the home node of addr, assigning the page to toucher
// if it has none yet (first-touch placement).
func (s *Space) HomeOrAssign(addr Addr, toucher int) int {
	if h := s.Home(addr); h >= 0 {
		return h
	}
	if toucher < 0 || toucher >= s.cfg.Nodes {
		panic(fmt.Sprintf("memaddr: toucher %d out of range", toucher))
	}
	page := s.pageOf(addr)
	s.grow(page + 1)
	s.homes[page] = toucher
	return toucher
}
