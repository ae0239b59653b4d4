// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload of whole-machine simulations in a closed loop for
// a fixed host-time budget, checks every simulated result, and prints its
// metrics by name with unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"},
// where metrics are the end-to-end metrics, or with -trace 1 the per-layer
// ledger (each layer's share of CPU-profile samples plus counters read from
// the simulator's public accessors).
//
// Run it from the repository root through the wrapper, which first builds
// this module from the checkout's sources:
//
//	bash perfbench/run.sh --workload splash-base --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json fixes the workloads, metrics and bounds; README.md in this
// directory explains them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: feeds workload.NewSeeded and the chaos base seed")
	seconds := flag.Float64("seconds", 20, "host-time budget of the measured passes")
	trace := flag.Int("trace", 0, "1 = traced run: CPU profile and spans, per-layer metrics")
	out := flag.String("out", ".bench_build/trace", "directory for a traced run's cpu.pprof and spans.json")
	pinPath := flag.String("write-pins", "", "run one pass at seed 1 and record its results in this pins file")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	runtime.GOMAXPROCS(min(jobs, runtime.NumCPU()))

	if *pinPath != "" {
		p := runPass(w, pinSeed, time.Now(), nil, 0)
		(&checker{}).check(p.cells)
		if err := writePins(*pinPath, w.name, p.cells); err != nil {
			fatal(err)
		}
		fmt.Printf("perfbench: pinned %d %s simulations at seed %d in %s\n", len(p.cells), w.name, pinSeed, *pinPath)
		return
	}

	opts := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		opts.traceDir = *out
	}
	r, err := run(w, opts, os.Stdout)
	if err != nil {
		fatal(err)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	metrics := endToEnd(r)
	if r.traced() {
		metrics = perLayer(r)
	}
	printMetrics(os.Stdout, metrics)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if r.failed != 0 {
		os.Exit(1)
	}
}

// options configure one run.
type options struct {
	seed   int64
	budget time.Duration
	// traceDir, when set, makes the run traced: after one untraced reference
	// pass, the passes run under the CPU profiler with spans recorded, and
	// cpu.pprof and spans.json are written here.
	traceDir string
}

// runResult is everything a run measured.
type runResult struct {
	setups          []time.Duration // one per construction timed for setup_s
	setupRounds     []time.Duration // calibration rounds timed between them
	setupAllocBytes uint64          // mean bytes allocated per construction
	passes          []*passRun      // the measured passes (traced ones in a traced run)
	reference       *passRun        // traced run: the untraced pass before profiling
	shares          map[string]float64
	samples         int64   // CPU-profile samples behind shares
	maxRSSKiB       float64 // the process's peak resident set after the passes

	attempted, failed int
	failures          []string
}

func (r *runResult) traced() bool { return r.reference != nil }

// run sets up the workload's configurations to time setup_s, then runs
// passes until the next one would overrun the budget (at least one), logging
// progress to log.
func run(w *benchWorkload, o options, log io.Writer) (*runResult, error) {
	clock := time.Now()
	r := &runResult{}
	if err := r.timeSetups(w.setups(o.seed), w.builds); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench %s: seed %d, budget %s, GOMAXPROCS %d, %s\n",
		w.name, o.seed, o.budget, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(log, "  setup: %d builds, median %.3f ms, host scale %.3f\n",
		len(r.setups), ms(medianDuration(r.setups)), hostScale(r.setupRounds))

	ch, err := newChecker(w.name, o.seed)
	if err != nil {
		return nil, err
	}
	measure := func(p *passRun) {
		ch.check(p.cells)
		for i := range p.cells {
			r.attempted++
			if c := &p.cells[i]; c.err != nil {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("%s/%s: %v", w.name, c.name, c.err))
			}
		}
		fmt.Fprintf(log, "  pass: %d simulations, %.3f s, host scale %.3f, digest %.16s\n",
			len(p.cells), p.wall.Seconds(), hostScale(p.rounds), passDigest(p.cells))
	}

	start := time.Now()
	var spans *spanLog
	var profile bytes.Buffer
	if o.traceDir != "" {
		r.reference = runPass(w, o.seed, clock, nil, 0)
		measure(r.reference)
		spans = &spanLog{}
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}
	for {
		p := runPass(w, o.seed, clock, spans, len(r.passes)+1)
		measure(p)
		r.passes = append(r.passes, p)
		if time.Since(start)+p.elapsed > o.budget {
			break
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.maxRSSKiB = float64(ru.Maxrss) // kilobytes on Linux
	if o.traceDir == "" {
		return r, nil
	}

	pprof.StopCPUProfile()
	leaf, err := leafSamples(profile.Bytes())
	if err != nil {
		return nil, err
	}
	r.shares = selfShares(leaf)
	for _, n := range leaf {
		r.samples += n
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.traceDir, "cpu.pprof"), profile.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := spans.write(filepath.Join(o.traceDir, "spans.json")); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "  trace: %d CPU samples, cpu.pprof and spans.json in %s\n", r.samples, o.traceDir)
	return r, nil
}

// timeSetups times builds back-to-back constructions (machine.New plus
// Workload.Setup), cycling through specs, with thirteen calibration rounds
// spread among them, and records the allocation they make.
func (r *runResult) timeSetups(specs []spec, builds int) error {
	var alloc uint64
	for i := 0; i < builds; i++ {
		if i%(builds/12) == 0 {
			r.setupRounds = append(r.setupRounds, calibrate())
		}
		s := &specs[i%len(specs)]
		runtime.GC()
		before := readMem()
		t0 := time.Now()
		_, _, err := build(s)
		d := time.Since(t0)
		after := readMem()
		if err != nil {
			return fmt.Errorf("setup %s: %w", s.name, err)
		}
		r.setups = append(r.setups, d)
		alloc += after.TotalAlloc - before.TotalAlloc
	}
	r.setupRounds = append(r.setupRounds, calibrate())
	r.setupAllocBytes = alloc / uint64(builds)
	return nil
}

func printMetrics(out io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(out, "  %-30s %14.6g %-14s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
