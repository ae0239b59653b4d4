// Command cctrace runs a simulation with the typed event trace enabled and
// streams every controller dispatch, queue movement, bus strobe, network
// send/receive, directory access, and cache-state transition to stdout as
// text — optionally filtered to one cache line or one transaction. It is
// the tool that found this repository's protocol races; it is equally
// useful for studying handler interleavings. For a Perfetto (Chrome
// trace_event) file of the same run, use `ccsim -trace F`.
//
// The filter compares the parsed line-address field of each structured
// event, so -line 0x3200 matches exactly that line (and not 0x32000, as the
// old substring filter did).
//
// Usage:
//
//	cctrace -app ocean -arch PPC -size test                 # full trace
//	cctrace -app radix -line 0x3200 -max 200                # one line
//	cctrace -app fft -txn 0x100000001                       # one transaction
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

func main() {
	flag.String("app", "ocean", fmt.Sprintf("application: %v", workload.Names()))
	flag.String("arch", "HWC", "controller architecture")
	flag.Int("nodes", 4, "SMP nodes")
	flag.Int("ppn", 2, "processors per node")
	flag.String("size", "test", "problem size: test, small, base, large")
	lineHex := flag.String("line", "", "only trace this cache line (hex, e.g. 0x3200)")
	txnHex := flag.String("txn", "", "print the causal span history of one transaction (hex ID from span events; implies attribution)")
	maxLines := flag.Int("max", 0, "stop printing after this many trace lines (0 = unlimited)")
	flag.Parse()

	// The machine and workload flags resolve through the scenario layer
	// like every other command's; -line here filters the trace rather
	// than setting the cache-line size.
	spec, err := scenario.FromFlags(flag.CommandLine, "", "", map[string]scenario.FlagFunc{
		"line": func(*scenario.Spec, string) error { return nil },
	})
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
		spec.Machine.Attribution = true // span events only exist with span tiling on
	}
	cell, err := scenario.NewCell(spec.Machine, spec.Workload)
	if err != nil {
		fatal(err)
	}
	app, cfg := cell.Spec.Workload.App, cell.Spec.Machine

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	kept := 0
	tr := obs.NewTracer(obs.WithBuffer(0), obs.WithSink(func(ev *obs.Event) {
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
	}))

	m, err := machine.NewTraced(cfg, app, tr)
	if err != nil {
		fatal(err)
	}
	w, err := cell.NewWorkload(m.NProcs())
	if err != nil {
		fatal(err)
	}
	r, err := workload.Run(m, w)
	out.Flush()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\n%s/%s: %d cycles, %d events printed\n",
		app, cfg.ArchName(), r.ExecTime, kept)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cctrace:", err)
	os.Exit(1)
}
