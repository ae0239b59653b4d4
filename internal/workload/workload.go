// Package workload implements the eight SPLASH-2 applications of the
// paper's Table 5 as execution-driven Go kernels, plus a tunable synthetic
// microbenchmark. Each kernel performs its real computation on Go-side
// arrays while issuing its shared-memory reference stream to the timing
// model at cache-line granularity (one simulated reference per touched
// line, with the intra-line accesses folded into Compute cycles — the
// caches operate on lines, so the timing behaviour is preserved while the
// simulation runs an order of magnitude faster).
//
// Problem sizes are scaled down from the paper's (pure-Go simulation costs
// more per reference than Augmint did); communication patterns — blocked
// 2D factorization, all-to-all transposes, key permutation, stencil
// halos, tree walks, pairwise force exchanges — are preserved, which is
// what drives coherence-controller occupancy.
package workload

import (
	"fmt"
	"sort"

	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/stats"
)

// SizeClass selects a problem size.
type SizeClass int

const (
	// SizeTest is a tiny configuration for unit tests and quick smoke
	// runs.
	SizeTest SizeClass = iota
	// SizeSmall is a reduced data set that still runs on the full base
	// machine: the "simpler applications" of the paper's Section 3.3
	// prediction methodology (detailed simulation of small inputs
	// calibrates the penalty-vs-RCCPI curve used to predict large ones).
	SizeSmall
	// SizeBase mirrors the paper's base data sets (scaled).
	SizeBase
	// SizeLarge mirrors the paper's larger data sets (scaled; 4x FFT
	// points, ~2x Ocean grid side, matching Figure 9's ratios).
	SizeLarge
)

func (s SizeClass) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	case SizeBase:
		return "base"
	case SizeLarge:
		return "large"
	default:
		return fmt.Sprintf("SizeClass(%d)", int(s))
	}
}

// Workload is one SPMD application.
type Workload interface {
	// Name returns the benchmark's name (lower case, e.g. "ocean").
	Name() string
	// Setup allocates the shared regions and initializes Go-side data.
	// It runs before simulation starts; initialization references are not
	// simulated (the paper measures the parallel phase only).
	Setup(m *machine.Machine) error
	// Body is the per-processor program.
	Body(e prog.Env)
	// Verify checks the computation's result after the run.
	Verify() error
}

// Run is the one way a workload runs on a machine: Setup, then the SPMD
// Body on every processor, then the workload's own result check. The
// caller builds the machine, so tracers, samplers and fault hooks attach
// before the run; Machine.Run checks completion, drain and coherence.
func Run(m *machine.Machine, w Workload) (*stats.Run, error) {
	if err := w.Setup(m); err != nil {
		return nil, err
	}
	r, err := m.Run(w.Body)
	if err != nil {
		return nil, err
	}
	if err := w.Verify(); err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	return r, nil
}

// Factory builds a workload at a given size for a machine with nprocs
// processors.
type Factory func(size SizeClass, nprocs int) Workload

var registry = map[string]Factory{}

func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = f
}

// New creates the named workload. Names follow the paper: lu, cholesky,
// barnes, water-sp, water-nsq, fft, radix, ocean, plus micro.
func New(name string, size SizeClass, nprocs int) (Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return f(size, nprocs), nil
}

// Seedable is implemented by workloads whose input data is drawn from a
// seeded generator. SetSeed offsets the kernel's fixed internal seed, so
// different seeds produce different (but still deterministic) inputs and
// reference streams; seed 0 is the identity and leaves the kernel
// byte-identical to its unseeded form.
type Seedable interface {
	SetSeed(seed int64)
}

// NewSeeded creates the named workload and applies seed when it is non-zero
// and the kernel draws seeded input data. Seed 0 always reproduces the
// exact unseeded workload, keeping default runs cycle-identical.
func NewSeeded(name string, size SizeClass, nprocs int, seed int64) (Workload, error) {
	w, err := New(name, size, nprocs)
	if err != nil {
		return nil, err
	}
	if s, ok := w.(Seedable); ok && seed != 0 {
		s.SetSeed(seed)
	}
	return w, nil
}

// Names lists the registered benchmarks in sorted order.
func Names() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperApps lists the eight SPLASH-2 applications in the paper's
// presentation order (Figure 6).
var PaperApps = []string{"lu", "water-sp", "barnes", "cholesky", "water-nsq", "fft", "radix", "ocean"}

// ---- reference helpers -------------------------------------------------------

// spanner issues line-granular references using the machine's configured
// cache-line size. Workloads embed one and initialize it in Setup; it also
// carries the optional input seed, making every kernel Seedable.
type spanner struct {
	ls   uint64 // line size in bytes
	seed int64  // input-seed offset (0 = the kernel's fixed default)
}

func (s *spanner) init(m *machine.Machine) { s.ls = uint64(m.Cfg.LineSize) }

// SetSeed offsets the kernel's input-generation seed. Kernels whose inputs
// are fully deterministic (micro, ocean) ignore it.
func (s *spanner) SetSeed(seed int64) { s.seed = seed }

// readSpan issues one simulated read per cache line of [base, base+bytes).
func (s *spanner) readSpan(e prog.Env, base uint64, bytes int) {
	first := base &^ (s.ls - 1)
	last := (base + uint64(bytes) - 1) &^ (s.ls - 1)
	for a := first; a <= last; a += s.ls {
		e.Read(a)
	}
}

// writeSpan issues one simulated write per cache line of the span.
func (s *spanner) writeSpan(e prog.Env, base uint64, bytes int) {
	first := base &^ (s.ls - 1)
	last := (base + uint64(bytes) - 1) &^ (s.ls - 1)
	for a := first; a <= last; a += s.ls {
		e.Write(a)
	}
}

// blockRange partitions n items over nprocs and returns [lo, hi) for proc
// id (contiguous blocks, remainder spread over the first procs).
func blockRange(n, nprocs, id int) (int, int) {
	base := n / nprocs
	rem := n % nprocs
	lo := id*base + min(id, rem)
	hi := lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}
