// Command ccmodel is the protocol checker. It regenerates the committed
// ccnuma-model/v1 artifact from the implementation and checks it for
// staleness, explores the abstract nodes × lines machine built on that
// model (hash-compacted visited set, per-line partial-order reduction),
// and drives the real simulator stack: every quiescent state of a small
// machine plus timing races (-replay), a single-fault recovery sweep
// (-sweep-faults), and contended access storms (-conform). Every
// transition of those concrete machines is validated against the model's
// rule table.
//
// Usage:
//
//	ccmodel -write             regenerate ccnuma-model.json
//	ccmodel -stale             fail (exit 1) if the artifact is stale
//	ccmodel -check -nodes 4 -robust
//	ccmodel -conform -replay -nodes 2 -procs 1
//	ccmodel -sweep-faults
//
// Exit status is 1 on violations, unrecovered faults, conformance
// failures, or a stale artifact, 2 on errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"ccnuma/internal/extract"
	"ccnuma/internal/model"
	"ccnuma/internal/verify"
)

func main() {
	write := flag.Bool("write", false, "re-extract the model and write "+extract.ArtifactPath)
	stale := flag.Bool("stale", false, "re-extract and compare against the committed artifact")
	check := flag.Bool("check", false, "explore the abstract machine and check invariants")
	replay := flag.Bool("replay", false, "explore the real simulator stack: every quiescent state of a small machine, then timing races")
	sweep := flag.Bool("sweep-faults", false, "replay a canonical path on the robust machine once per (message, drop/dup/nack/timeout) pair with one fault injected and require recovery")
	conform := flag.Bool("conform", false, "drive contended access storms on concrete machines")
	dir := flag.String("dir", ".", "module root (where go.mod and the artifact live)")
	nodes := flag.Int("nodes", 0, "machine nodes (0 = 4 with -check, 2 with -replay and -sweep-faults)")
	procs := flag.Int("procs", 1, "processors per node (with -replay and -sweep-faults)")
	lines := flag.Int("lines", 1, "abstract machine lines (with -check)")
	robust := flag.Bool("robust", false, "enable finite-buffer NACK/backoff edges (with -check)")
	por := flag.Bool("por", false, "enable the partial-order reduction (with -check)")
	maxStates := flag.Int("max-states", 0, "state bound, 0 = default (with -check)")
	states := flag.Int("states", 0, "quiescent-state budget, 0 = default (with -replay)")
	races := flag.Int("races", 0, "race budget, 0 = default, -1 skips the races (with -replay)")
	jobs := flag.Int("jobs", 0, "replays to run concurrently (0 = GOMAXPROCS; the report is identical for any value)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "ccmodel: %v\n", err)
		os.Exit(2)
	}
	if !*write && !*stale && !*check && !*replay && !*sweep && !*conform {
		flag.Usage()
		os.Exit(2)
	}

	if *write {
		m, err := extract.Extract(*dir)
		if err != nil {
			fatal(err)
		}
		if err := m.Write(*dir); err != nil {
			fatal(err)
		}
		fmt.Printf("ccmodel: wrote %s (fingerprint %s, %d rules, %d handlers, %d messages)\n",
			extract.ArtifactPath, m.Fingerprint, len(m.Rules), len(m.Handlers), len(m.Messages))
	}

	if *stale {
		reason, err := extract.CheckStale(*dir)
		if err != nil {
			fatal(err)
		}
		if reason != "" {
			fmt.Fprintf(os.Stderr, "ccmodel: %s\n", reason)
			os.Exit(1)
		}
		fmt.Println("ccmodel: committed model is fresh")
	}

	if !*check && !*replay && !*sweep && !*conform {
		return
	}
	m, _, err := extract.LoadArtifact(*dir)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "ccmodel: no committed %s; run `ccmodel -write`\n", extract.ArtifactPath)
			os.Exit(1)
		}
		fatal(err)
	}
	ix := m.Index()
	failed := false

	if *check {
		res, err := model.Check(model.Config{
			Nodes: *nodes, Lines: *lines, Robust: *robust, POR: *por,
			MaxStates: *maxStates,
		}, ix)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ccmodel: %s\n", res)
		failed = len(res.Violations) > 0
	}

	if *replay || *sweep || *conform {
		// One hook validates every concrete machine below; its report
		// covers them all.
		conf := model.NewConformance(ix)
		if *conform {
			if conf, err = model.RunConformance(ix); err != nil {
				fatal(err)
			}
		}
		if *nodes == 0 {
			*nodes = 2
		}
		vc := verify.Config{
			Nodes: *nodes, ProcsPerNode: *procs, MaxStates: *states, MaxRaces: *races,
			Jobs: *jobs, Conform: conf,
		}
		if !*quiet {
			vc.Log = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if *replay {
			res, err := verify.Run(vc)
			if err != nil {
				fatal(err)
			}
			fixpoint := "fixpoint reached"
			switch {
			case res.Truncated:
				fixpoint = "state budget exhausted before closure"
			case res.RacesTruncated:
				fixpoint = "fixpoint reached, race budget exhausted"
			}
			fmt.Printf("ccmodel: %dx%d replay: %d states, %d edges, %d races (%s)\n",
				vc.Nodes, vc.ProcsPerNode, res.States, res.Edges, res.Races, fixpoint)
			failed = report(res.Violations) || failed
		}
		if *sweep {
			res, err := verify.SweepSingleFaults(vc)
			if err != nil {
				fatal(err)
			}
			note := ""
			if res.Truncated {
				note = " (grid stride-sampled)"
			}
			fmt.Printf("ccmodel: fault sweep: %d messages, %d fault-injected replays%s\n",
				res.Messages, res.Runs, note)
			failed = report(res.Violations) || failed
		}
		fmt.Printf("ccmodel: %s\n", conf)
		for _, f := range conf.Failures {
			fmt.Fprintf(os.Stderr, "ccmodel: %s\n", f)
		}
		failed = failed || len(conf.Failures) > 0
	}
	if failed {
		os.Exit(1)
	}
}

// report prints violations and reports whether there were any.
func report(vios []verify.Violation) bool {
	for i := range vios {
		fmt.Printf("violation: %s\n", vios[i].String())
	}
	return len(vios) > 0
}
