// Command ccserved is the crash-safe experiment service: an HTTP daemon
// that executes submitted ccnuma scenarios and sweeps, memoizes every
// cell artifact in a content-addressed store, journals sweep acceptance
// so a kill at any instant is resumed on restart, and bounds admission so
// overload degrades into 429s instead of an unbounded queue.
//
// Endpoints: POST /v1/submit, GET /v1/artifact/{fp}, GET /healthz,
// GET /readyz, GET /statusz. Submit with cmd/ccsubmit or plain curl.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ccnuma/internal/serve"
)

func main() {
	cfg := serve.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.StringVar(&cfg.StoreDir, "store", cfg.StoreDir, "content-addressed store directory")
	flag.IntVar(&cfg.Jobs, "jobs", cfg.Jobs, "concurrently executing cells per submission")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "admitted-cell bound; beyond it submissions get 429")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "graceful-shutdown bound")
	flag.Int64Var(&cfg.SampleEvery, "sample-every", 0, "attach an obs sampler at this simulated-cycle interval (0 = off)")
	flag.StringVar(&cfg.ComputeLog, "compute-log", "", "append one line per actually-computed cell (audit trail)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "ccserved: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = time.Second
	}
	if err := serve.Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(1)
	}
}
