package workload

import (
	"fmt"
	"math"
	"math/rand"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
)

func init() {
	register("barnes", func(size SizeClass, nprocs int) Workload {
		n := 1024
		switch size {
		case SizeTest:
			n = 128
		case SizeSmall:
			n = 512
		case SizeLarge:
			n = 2048
		}
		return &barnesWork{n: n, steps: 2, theta: 0.6, nprocs: nprocs}
	})
}

// body is one particle.
type body struct {
	pos  [3]float64
	vel  [3]float64
	acc  [3]float64
	mass float64
}

// octNode is one octree cell.
type octNode struct {
	center [3]float64
	size   float64
	com    [3]float64 // center of mass
	mass   float64
	child  [8]int // node indices, -1 = empty
	body   int    // body index for leaves, -1 otherwise
	leaf   bool
}

// barnesWork is the hierarchical N-body kernel: an octree is rebuilt each
// timestep, centers of mass are computed bottom-up, and the force phase
// walks the tree per body with the theta opening criterion. Tree nodes are
// read-shared by every processor (each node padded to one cache line), so
// the communication is read-dominated and moderate, matching Barnes' low
// RCCPI in the paper.
type barnesWork struct {
	spanner
	n      int
	steps  int
	theta  float64
	nprocs int

	bodies []body
	nodes  []octNode

	bodyBase uint64
	nodeBase uint64
	nodeCap  int

	initialE float64
	finalE   float64
}

func (w *barnesWork) Name() string { return "barnes" }

func (w *barnesWork) Setup(m *machine.Machine) error {
	w.init(m)
	w.bodies = make([]body, w.n)
	rng := rand.New(rand.NewSource(17 + w.seed))
	for i := range w.bodies {
		b := &w.bodies[i]
		for d := 0; d < 3; d++ {
			b.pos[d] = rng.Float64()*2 - 1
			b.vel[d] = (rng.Float64()*2 - 1) * 0.01
		}
		b.mass = 1.0 / float64(w.n)
	}
	w.nodeCap = 4 * w.n
	w.nodes = make([]octNode, 0, w.nodeCap)
	// One line per body record and per tree node.
	w.bodyBase = m.Space.Alloc(w.n * int(w.ls))
	w.nodeBase = m.Space.Alloc(w.nodeCap * int(w.ls))
	w.initialE = w.energy()
	return nil
}

func (w *barnesWork) bodyAddr(i int) uint64 { return w.bodyBase + uint64(i)*w.ls }
func (w *barnesWork) nodeAddr(i int) uint64 { return w.nodeBase + uint64(i)*w.ls }

// buildTree reconstructs the octree (performed by processor 0, with its
// references simulated; SPLASH-2 builds the tree in parallel with locks —
// the serial build is a documented simplification that preserves the
// read-shared force-phase traffic).
func (w *barnesWork) buildTree(e *prog.Env) {
	w.nodes = w.nodes[:0]
	root := w.newNode([3]float64{0, 0, 0}, 4.0)
	for i := range w.bodies {
		w.insert(root, i)
		e.Read(w.bodyAddr(i))
		e.Compute(40)
	}
	w.computeCOM(root)
	for i := range w.nodes {
		e.Write(w.nodeAddr(i))
		e.Compute(30)
	}
}

func (w *barnesWork) newNode(center [3]float64, size float64) int {
	n := octNode{center: center, size: size, body: -1}
	for i := range n.child {
		n.child[i] = -1
	}
	w.nodes = append(w.nodes, n)
	return len(w.nodes) - 1
}

func (w *barnesWork) insert(ni, bi int) {
	nd := &w.nodes[ni]
	if nd.leaf && nd.size < 1e-6 {
		// Coincident bodies: cells cannot subdivide further. Leave the
		// existing occupant; the lost mass is negligible for the traffic
		// pattern and the integration remains finite.
		return
	}
	if nd.leaf {
		// Split: push the existing body down.
		old := nd.body
		nd.leaf = false
		nd.body = -1
		w.pushDown(ni, old)
		w.pushDown(ni, bi)
		return
	}
	empty := true
	for _, c := range nd.child {
		if c >= 0 {
			empty = false
			break
		}
	}
	if empty && nd.mass == 0 && ni != 0 {
		nd.leaf = true
		nd.body = bi
		return
	}
	w.pushDown(ni, bi)
}

func (w *barnesWork) pushDown(ni, bi int) {
	nd := &w.nodes[ni]
	oct := 0
	var childCenter [3]float64
	for d := 0; d < 3; d++ {
		if w.bodies[bi].pos[d] >= nd.center[d] {
			oct |= 1 << d
			childCenter[d] = nd.center[d] + nd.size/4
		} else {
			childCenter[d] = nd.center[d] - nd.size/4
		}
	}
	if nd.child[oct] < 0 {
		ci := w.newNode(childCenter, nd.size/2)
		w.nodes[ni].child[oct] = ci // nd may be stale after append
		w.nodes[ci].leaf = true
		w.nodes[ci].body = bi
		return
	}
	w.insert(nd.child[oct], bi)
}

func (w *barnesWork) computeCOM(ni int) (float64, [3]float64) {
	nd := &w.nodes[ni]
	if nd.leaf {
		b := &w.bodies[nd.body]
		nd.mass = b.mass
		nd.com = b.pos
		return nd.mass, nd.com
	}
	var mass float64
	var com [3]float64
	for _, c := range nd.child {
		if c < 0 {
			continue
		}
		m, p := w.computeCOM(c)
		mass += m
		for d := 0; d < 3; d++ {
			com[d] += m * p[d]
		}
	}
	if mass > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= mass
		}
	}
	nd.mass = mass
	nd.com = com
	return mass, com
}

// force walks the tree for one body, issuing a read per visited node.
func (w *barnesWork) force(e *prog.Env, bi int) [3]float64 {
	const eps = 0.05
	var acc [3]float64
	var walk func(ni int)
	walk = func(ni int) {
		nd := &w.nodes[ni]
		e.Read(w.nodeAddr(ni))
		e.Compute(160)
		if nd.mass == 0 {
			return
		}
		var dr [3]float64
		dist2 := eps * eps
		for d := 0; d < 3; d++ {
			dr[d] = nd.com[d] - w.bodies[bi].pos[d]
			dist2 += dr[d] * dr[d]
		}
		dist := math.Sqrt(dist2)
		if nd.leaf || nd.size/dist < w.theta {
			if nd.leaf && nd.body == bi {
				return
			}
			f := nd.mass / (dist2 * dist)
			for d := 0; d < 3; d++ {
				acc[d] += f * dr[d]
			}
			return
		}
		for _, c := range nd.child {
			if c >= 0 {
				walk(c)
			}
		}
	}
	walk(0)
	return acc
}

func (w *barnesWork) Body(e *prog.Env) {
	me := e.ID()
	lo, hi := blockRange(w.n, w.nprocs, me)
	const dt = 0.01
	for s := 0; s < w.steps; s++ {
		if me == 0 {
			w.buildTree(e)
		}
		e.Barrier()
		// Force phase: read-shared tree walk per owned body.
		for i := lo; i < hi; i++ {
			w.bodies[i].acc = w.force(e, i)
			e.Read(w.bodyAddr(i))
		}
		e.Barrier()
		// Update phase: local position/velocity integration.
		for i := lo; i < hi; i++ {
			b := &w.bodies[i]
			for d := 0; d < 3; d++ {
				b.vel[d] += b.acc[d] * dt
				b.pos[d] += b.vel[d] * dt
				// Keep bodies inside the root cell.
				if b.pos[d] > 1.9 {
					b.pos[d] = 1.9
				}
				if b.pos[d] < -1.9 {
					b.pos[d] = -1.9
				}
			}
			e.Write(w.bodyAddr(i))
			e.Compute(40)
		}
		e.Barrier()
	}
	if me == 0 {
		w.finalE = w.energy()
	}
	e.Barrier()
}

// energy returns the system's kinetic energy (a cheap sanity metric).
func (w *barnesWork) energy() float64 {
	var ke float64
	for i := range w.bodies {
		b := &w.bodies[i]
		v2 := b.vel[0]*b.vel[0] + b.vel[1]*b.vel[1] + b.vel[2]*b.vel[2]
		ke += 0.5 * b.mass * v2
	}
	return ke
}

// Verify checks the integration produced finite motion.
func (w *barnesWork) Verify() error {
	if math.IsNaN(w.finalE) || math.IsInf(w.finalE, 0) {
		return fmt.Errorf("barnes: non-finite final energy")
	}
	if w.finalE == w.initialE {
		return fmt.Errorf("barnes: bodies did not move (energy unchanged at %g)", w.finalE)
	}
	for i := range w.bodies {
		for d := 0; d < 3; d++ {
			if math.IsNaN(w.bodies[i].pos[d]) {
				return fmt.Errorf("barnes: body %d has NaN position", i)
			}
		}
	}
	return nil
}
