package interconnect

import "ccnuma/internal/sim"

// mesh implements the 2-D mesh topology: nodes arranged in a rows×cols
// grid, dimension-order (X then Y) routing, and one sim.Resource per
// directed link so messages contend hop by hop.
type mesh struct {
	rows, cols int
	// links[from][to] for adjacent nodes.
	links map[[2]int]*sim.Resource
}

// newMesh factors n into the squarest rows×cols grid (n must not be
// prime beyond 2 — power-of-two node counts always factor).
func newMesh(eng *sim.Engine, n int) *mesh {
	rows := 1
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	m := &mesh{rows: rows, cols: n / rows, links: make(map[[2]int]*sim.Resource)}
	link := func(a, b int) {
		key := [2]int{a, b}
		if m.links[key] == nil {
			m.links[key] = sim.NewResource(eng)
		}
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			id := r*m.cols + c
			if c+1 < m.cols {
				link(id, id+1)
				link(id+1, id)
			}
			if r+1 < m.rows {
				link(id, id+m.cols)
				link(id+m.cols, id)
			}
		}
	}
	return m
}

// route returns the sequence of directed links from src to dst under
// dimension-order routing (X first, then Y).
func (m *mesh) route(src, dst int) [][2]int {
	var hops [][2]int
	r, c := src/m.cols, src%m.cols
	dr, dc := dst/m.cols, dst%m.cols
	for c != dc {
		next := c + 1
		if dc < c {
			next = c - 1
		}
		hops = append(hops, [2]int{r*m.cols + c, r*m.cols + next})
		c = next
	}
	for r != dr {
		next := r + 1
		if dr < r {
			next = r - 1
		}
		hops = append(hops, [2]int{r*m.cols + c, next*m.cols + c})
		r = next
	}
	return hops
}

// Hops returns the Manhattan distance between two nodes.
func (m *mesh) Hops(src, dst int) int { return len(m.route(src, dst)) }
