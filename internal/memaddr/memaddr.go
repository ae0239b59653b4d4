// Package memaddr implements the simulated physical address space of the
// CC-NUMA machine: allocation of shared regions, page-granular home-node
// placement (round-robin, first-touch, or explicit hints), and the
// line/bank mappings used by the memory controllers.
package memaddr

import (
	"fmt"

	"ccnuma/internal/config"
)

// Addr is a simulated physical address.
type Addr = uint64

// Space is the machine's physical address space. It is not safe for
// concurrent use; in the simulator only one goroutine runs at a time.
type Space struct {
	cfg   *config.Config
	next  Addr         // next unallocated address (starts above the null page)
	homes map[Addr]int // page number -> home node (missing = unassigned)
	rr    int          // next node for round-robin placement
}

// NewSpace creates an empty address space for the given configuration.
func NewSpace(cfg *config.Config) *Space {
	return &Space{
		cfg:   cfg,
		next:  Addr(cfg.PageSize), // keep page 0 unmapped to catch null addresses
		homes: make(map[Addr]int),
	}
}

// pageOf returns the page number containing addr.
func (s *Space) pageOf(addr Addr) Addr { return addr / Addr(s.cfg.PageSize) }

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
	if h, ok := s.homes[s.pageOf(addr)]; ok {
		return h
	}
	return -1
}

// HomeOrAssign returns the home node of addr, assigning the page to toucher
// if it has none yet (first-touch placement).
func (s *Space) HomeOrAssign(addr Addr, toucher int) int {
	page := s.pageOf(addr)
	if h, ok := s.homes[page]; ok {
		return h
	}
	if toucher < 0 || toucher >= s.cfg.Nodes {
		panic(fmt.Sprintf("memaddr: toucher %d out of range", toucher))
	}
	s.homes[page] = toucher
	return toucher
}
