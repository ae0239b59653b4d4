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
			r := sim.MakeResource(eng)
			m.links[key] = &r
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

// next returns the node after cur on the dimension-order route to dst
// (X first, then Y); cur must not be dst.
func (m *mesh) next(cur, dst int) int {
	switch c, dc := cur%m.cols, dst%m.cols; {
	case c < dc:
		return cur + 1
	case c > dc:
		return cur - 1
	case cur < dst:
		return cur + m.cols
	default:
		return cur - m.cols
	}
}

// Hops returns the Manhattan distance between two nodes, the length of
// their route.
func (m *mesh) Hops(src, dst int) int {
	return abs(src/m.cols-dst/m.cols) + abs(src%m.cols-dst%m.cols)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
