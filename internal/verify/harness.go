package verify

import (
	"fmt"
	"sort"
	"strings"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/sim"
)

// stallWindow bounds how many events may execute without simulated time
// advancing before the checker calls it a livelock (a legitimate quiescent
// drain executes far fewer zero-time events than this on the tiny machine).
const stallWindow = 100_000

// Harness is one freshly built checker machine plus the bookkeeping its
// invariants need. Every concrete machine the checkers build comes from
// here: the state-space walk's edges, solo and race runs, the fault
// sweep's replays, and the model package's conformance storms. Callers
// allocate the lines they drive (Alloc), issue accesses (Access), run to
// quiescence under the per-event invariants (Drain), and then apply the
// quiescent ones (Quiescent).
type Harness struct {
	M *machine.Machine

	// lines are the watched lines in ascending order: the per-event and
	// quiescent invariants cover them, and the state hash walks them.
	lines []uint64

	// lastVal holds, per line, the value of the last completed write (0
	// before any write). At quiescence every valid cached copy must carry
	// it, and memory must carry it once no dirty copy exists.
	lastVal map[uint64]uint64
}

// machineConfig derives the tiny checker machine from the base system.
func machineConfig(vc *Config) config.Config {
	c := config.Base()
	c.Nodes = vc.Nodes
	c.ProcsPerNode = vc.ProcsPerNode
	c.Topology = config.TopoCrossbar
	// Single-set, single-line caches: any second line conflicts with the
	// first, so touching another line evicts, and every access pattern
	// over a few lines exercises write-backs and interventions densely.
	c.L1Size, c.L1Assoc = c.LineSize, 1
	c.L2Size, c.L2Assoc = c.LineSize, 1
	// No directory cache: its contents are timing state that survives
	// quiescence and would leak into (and blow up) the abstract state
	// space without changing protocol behavior.
	c.DirCacheEntries = 0
	c.SimLimit = 5_000_000
	if vc.Robust {
		c = c.WithRobustness()
	}
	return c
}

// NewHarness builds a fresh checker machine of vc.Nodes × vc.ProcsPerNode
// processors, attaches vc.Conform to every controller, and applies
// vc.Fault.
func NewHarness(vc *Config) (*Harness, error) {
	m, err := machine.New(machineConfig(vc), "checker")
	if err != nil {
		return nil, err
	}
	if vc.Conform != nil {
		for _, cc := range m.CCs {
			cc.SetConformanceHook(vc.Conform)
		}
	}
	if vc.Fault != nil {
		vc.Fault(m)
	}
	return &Harness{M: m, lastVal: map[uint64]uint64{}}, nil
}

// Alloc allocates one line homed on node and adds it to the watched lines.
func (h *Harness) Alloc(node int) uint64 {
	line := h.M.Space.AllocOnNode(h.M.Cfg.LineSize, node)
	h.lines = append(h.lines, line)
	sort.Slice(h.lines, func(i, j int) bool { return h.lines[i] < h.lines[j] })
	return line
}

// Access issues one load or store through processor proc's
// synchronous-access port. A completed store becomes its line's last
// written value; done (if non-nil) then runs.
func (h *Harness) Access(proc int, line uint64, write bool, done func()) {
	p := h.M.Procs[proc]
	p.SyncAccess(line, write, sim.Func(func() {
		if write {
			h.lastVal[line] = p.LastWriteValue()
		}
		if done != nil {
			done()
		}
	}))
}

// Drain executes engine events until the queue empties, checking the
// per-event invariants after every event and watching for livelock. When
// times is non-nil it collects the distinct simulated times at which
// events ran, relative to the drain's start — the race phase samples its
// injection offsets from them.
func (h *Harness) Drain(times *[]sim.Time) *Violation {
	eng := h.M.Eng
	start := eng.Now()
	lastT := start
	sameT := 0
	if times != nil {
		*times = append(*times, 0)
	}
	for eng.Step() {
		if v := h.stepInvariant(); v != nil {
			return v
		}
		now := eng.Now()
		if now == lastT {
			sameT++
			if sameT > stallWindow {
				return &Violation{Kind: "livelock", Detail: fmt.Sprintf(
					"%d events executed without time advancing past t=%d", sameT, lastT)}
			}
			continue
		}
		lastT, sameT = now, 0
		if times != nil {
			*times = append(*times, now-start)
		}
	}
	if eng.LimitHit() {
		return &Violation{Kind: "livelock", Detail: fmt.Sprintf(
			"sim limit hit at t=%d; machine state:\n%s", eng.Now(), h.M.Snapshot())}
	}
	return nil
}

// stepInvariant checks the per-event safety properties: at most one
// Modified/Exclusive copy of each watched line system-wide (and no other
// valid copy beside it), and at most one Owned copy.
func (h *Harness) stepInvariant() *Violation {
	for _, line := range h.lines {
		exclusive, owned, valid := 0, 0, 0
		var holders []string
		for _, p := range h.M.Procs {
			st := p.L2State(line)
			if st == cache.Invalid {
				continue
			}
			valid++
			switch st {
			case cache.Modified, cache.Exclusive:
				exclusive++
			case cache.Owned:
				owned++
			case cache.Shared:
			default:
				panic(fmt.Sprintf("verify: unknown cache state %v", st))
			}
			holders = append(holders, fmt.Sprintf("p%d=%v", p.ID(), st))
		}
		if exclusive > 0 && valid > 1 || owned > 1 {
			return &Violation{Kind: "multiple-owners", Detail: fmt.Sprintf(
				"line %#x at t=%d held as %s", line, h.M.Eng.Now(), strings.Join(holders, " "))}
		}
	}
	return nil
}

// Quiescent applies the invariants that only hold once the machine is
// idle: nothing in flight or queued (Machine.CheckDrained), directory/cache
// agreement, and data-value correctness (every valid copy of a watched
// line carries its last written value; memory does too unless a dirty copy
// exists).
func (h *Harness) Quiescent() *Violation {
	if err := h.M.CheckDrained(); err != nil {
		return &Violation{Kind: "stuck-transient", Detail: fmt.Sprintf(
			"%v after drain at t=%d; machine state:\n%s", err, h.M.Eng.Now(), h.M.Snapshot())}
	}
	if err := h.M.CheckCoherence(); err != nil {
		return &Violation{Kind: "coherence", Detail: err.Error()}
	}
	for _, line := range h.lines {
		want := h.lastVal[line]
		dirty := false
		for _, p := range h.M.Procs {
			st := p.L2State(line)
			if st == cache.Invalid {
				continue
			}
			if st.Dirty() {
				dirty = true
			}
			if got := p.LineValue(line); got != want {
				return &Violation{Kind: "stale-copy", Detail: fmt.Sprintf(
					"p%d holds line %#x (%v) with value %#x, want %#x",
					p.ID(), line, st, got, want)}
			}
		}
		if !dirty {
			home := h.M.Space.Home(line)
			if got := h.M.Buses[home].MemValue(line); got != want {
				return &Violation{Kind: "lost-writeback", Detail: fmt.Sprintf(
					"memory on node %d holds line %#x value %#x, want %#x (no dirty copy exists)",
					home, line, got, want)}
			}
		}
	}
	return nil
}

// hash canonicalizes the quiescent machine into a string. Data values are
// renamed to small ranks in a fixed traversal order (the simulator treats
// values opaquely, so states differing only in which unique values appear
// are protocol-equivalent). Everything that can influence future behavior
// is included: per-proc L1/L2 states and values of the watched lines,
// per-home memory values, directory entries, and controller transients
// (expected empty at quiescence, included as a belt-and-braces check).
func (h *Harness) hash() string {
	var b strings.Builder
	rank := map[uint64]int{0: 0}
	rk := func(v uint64) int {
		n, ok := rank[v]
		if !ok {
			n = len(rank)
			rank[v] = n
		}
		return n
	}
	for _, p := range h.M.Procs {
		l1 := map[uint64]cache.State{}
		p.ForEachL1Line(func(line uint64, st cache.State) { l1[line] = st })
		for _, line := range h.lines {
			st := p.L2State(line)
			fmt.Fprintf(&b, "p%d[%#x]=%v", p.ID(), line, st)
			if st != cache.Invalid {
				fmt.Fprintf(&b, ":v%d", rk(p.LineValue(line)))
			}
			if l1st, ok := l1[line]; ok {
				fmt.Fprintf(&b, ":l1=%v", l1st)
			}
			b.WriteByte(';')
		}
	}
	for _, line := range h.lines {
		home := h.M.Space.Home(line)
		fmt.Fprintf(&b, "mem[%#x]=v%d;", line, rk(h.M.Buses[home].MemValue(line)))
	}
	for i, d := range h.M.Dirs {
		fmt.Fprintf(&b, "dir%d{%s};", i, d.StateSnapshot())
	}
	for i, cc := range h.M.CCs {
		fmt.Fprintf(&b, "cc%d{%s};", i, cc.StateSnapshot())
	}
	return b.String()
}

// finalValue reads the line's settled value out of the quiescent machine:
// a dirty copy wins, else any valid copy, else the home memory image.
func (h *Harness) finalValue(line uint64) (uint64, string) {
	var cleanVal uint64
	haveClean := false
	for _, p := range h.M.Procs {
		st := p.L2State(line)
		if st.Dirty() {
			return p.LineValue(line), fmt.Sprintf("dirty copy on p%d", p.ID())
		}
		if st != cache.Invalid && !haveClean {
			cleanVal, haveClean = p.LineValue(line), true
		}
	}
	if haveClean {
		return cleanVal, "clean cached copy"
	}
	home := h.M.Space.Home(line)
	return h.M.Buses[home].MemValue(line), fmt.Sprintf("memory on node %d", home)
}
