// Command cctrace runs a simulation with the typed event trace enabled and
// prints every controller dispatch, queue movement, bus strobe, network
// send/receive, directory access, and cache-state transition — optionally
// filtered to one cache line. It is the tool that found this repository's
// protocol races; it is equally useful for studying handler interleavings.
//
// The filter compares the parsed line-address field of each structured
// event, so -line 0x3200 matches exactly that line (and not 0x32000, as the
// old substring filter did).
//
// Usage:
//
//	cctrace -app ocean -arch PPC -size test                 # full trace
//	cctrace -app radix -line 0x3200 -max 200                # one line
//	cctrace -app fft -chrome trace.json                     # Perfetto trace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

func main() {
	app := flag.String("app", "ocean", fmt.Sprintf("application: %v", workload.Names()))
	arch := flag.String("arch", "HWC", "controller architecture")
	nodes := flag.Int("nodes", 4, "SMP nodes")
	ppn := flag.Int("ppn", 2, "processors per node")
	sizeFlag := flag.String("size", "test", "problem size: test, base, large")
	lineHex := flag.String("line", "", "only trace this cache line (hex, e.g. 0x3200)")
	txnHex := flag.String("txn", "", "print the causal span history of one transaction (hex ID from span events; implies attribution)")
	maxLines := flag.Int("max", 0, "stop printing after this many trace lines (0 = unlimited)")
	chromePath := flag.String("chrome", "", "also write Chrome trace_event JSON (Perfetto) to this file")
	flag.Parse()

	cfg := config.Base()
	cfg, err := cfg.WithArch(*arch)
	if err != nil {
		fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = *nodes, *ppn
	cfg.SimLimit = 50_000_000_000

	size, err := scenario.ParseSize(*sizeFlag)
	if err != nil {
		fatal(err)
	}

	var wantLine uint64
	filtered := false
	if *lineHex != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*lineHex, "0x"), 16, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -line %q: %w", *lineHex, err))
		}
		wantLine, filtered = v, true
	}
	var wantTxn uint64
	txnFiltered := false
	if *txnHex != "" {
		v, err := strconv.ParseUint(strings.TrimPrefix(*txnHex, "0x"), 16, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -txn %q: %w", *txnHex, err))
		}
		wantTxn, txnFiltered = v, true
		cfg.Attribution = true // span events only exist with the tracker on
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	kept := 0
	opts := []obs.Option{obs.WithSink(func(ev *obs.Event) {
		if txnFiltered && (ev.Kind != obs.EvSpan || uint64(ev.A) != wantTxn) {
			return
		}
		if filtered && ev.Line != wantLine {
			return
		}
		if *maxLines == 0 || kept < *maxLines {
			out.WriteString(ev.Text())
			out.WriteByte('\n')
			kept++
		}
	})}
	if *chromePath == "" {
		opts = append(opts, obs.WithBuffer(0)) // stream-only: no ring needed
	}
	tr := obs.NewTracer(opts...)

	m, err := machine.NewTraced(cfg, *app, tr)
	if err != nil {
		fatal(err)
	}
	w, err := workload.New(*app, size, m.NProcs())
	if err != nil {
		fatal(err)
	}
	if err := w.Setup(m); err != nil {
		fatal(err)
	}
	r, err := m.Run(w.Body)
	out.Flush()
	if err != nil {
		fatal(err)
	}
	if err := w.Verify(); err != nil {
		fatal(fmt.Errorf("verification failed: %w", err))
	}
	if *chromePath != "" {
		if err := obs.WriteChromeTraceFile(*chromePath, tr.Events()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chrome trace: %s (%d events buffered, %d dropped)\n",
			*chromePath, tr.Recorded(), tr.Dropped())
	}
	fmt.Fprintf(os.Stderr, "\n%s/%s: %d cycles, %d events printed\n",
		*app, cfg.ArchName(), r.ExecTime, kept)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cctrace:", err)
	os.Exit(1)
}
