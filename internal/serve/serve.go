// Package serve is the crash-safe experiment service behind ccserved: an
// HTTP API that accepts ccnuma-scenario/v1 documents (single runs or
// sweeps), executes them on the shared worker pool, and memoizes every
// cell artifact in a content-addressed store keyed by the cell's scenario
// fingerprint. Resubmitting any experiment — byte-identical or merely
// semantically identical after normalization — is served from the store
// without recomputation.
//
// Durability is the point. Sweep acceptance is journaled in the store's
// write-ahead log before any cell runs, and each finished cell is
// published with the store's atomic rename protocol, so a SIGKILL at any
// instant loses at most the cells that were mid-simulation: on restart
// the journal names the unfinished sweeps, the server resumes them, and
// completed cells are store hits — never recomputed, never torn. The
// kill-torture test in this package exercises exactly that loop.
//
// Admission is bounded: cells beyond the configured queue depth are
// rejected with 429 and a Retry-After hint rather than queued without
// limit, and /readyz flips to 503 under saturation or drain so a load
// balancer can route elsewhere. Cell panics (including the protocol's
// deliberate fail-stop) are captured, classified via
// machine.ClassifyFailure, and surfaced as machine-readable failure
// documents. A cell runs once: every way it can fail is deterministic, so
// running it again would fail the same way.
package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ccnuma/internal/obs"
	"ccnuma/internal/runner"
	"ccnuma/internal/scenario"
	"ccnuma/internal/store"
)

// Config carries every serving knob. The zero value is not runnable; use
// DefaultConfig and override.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// StoreDir is the content-addressed store root.
	StoreDir string
	// Jobs bounds concurrently executing cells per submission.
	Jobs int
	// QueueDepth bounds cells admitted across all submissions; beyond it,
	// submissions are rejected with 429 + Retry-After.
	QueueDepth int
	// DrainTimeout bounds graceful shutdown: how long in-flight requests
	// and cells get to finish before the listener is torn down hard.
	DrainTimeout time.Duration
	// SampleEvery, when > 0, attaches an obs sampler with that simulated-
	// cycle interval to every computed cell; the latest rows are exposed
	// on /statusz.
	SampleEvery int64
	// ComputeLog, when non-empty, is a file that receives one fingerprint
	// line per cell actually computed (not served from the store). The
	// kill-torture harness asserts no fingerprint ever appears twice.
	ComputeLog string
	// Out receives log lines (defaults to os.Stderr).
	Out io.Writer
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{
		Addr:         "127.0.0.1:8347",
		StoreDir:     "ccserved-store",
		Jobs:         4,
		QueueDepth:   64,
		DrainTimeout: 30 * time.Second,
	}
}

// Counters are the monotonically increasing serve-side counts exposed on
// /statusz. All fields are guarded by Server.mu.
type Counters struct {
	Submissions   uint64 `json:"submissions"`
	CellsHit      uint64 `json:"cellsHit"`
	CellsComputed uint64 `json:"cellsComputed"`
	CellsFailed   uint64 `json:"cellsFailed"`
	Rejected      uint64 `json:"rejected"`
	SweepsResumed uint64 `json:"sweepsResumed"`
}

// flight is one in-progress cell computation; duplicate submissions of
// the same fingerprint join it instead of computing again (singleflight).
type flight struct {
	done chan struct{}
	fail *obs.FailureDoc
}

// Server is the experiment service. Create with New, start with Start or
// Run, stop with Shutdown.
type Server struct {
	cfg   Config
	store *store.Store
	// Recovery is the store's startup report, frozen at New and exposed
	// on /statusz so operators can see what the last crash cost.
	Recovery *store.Recovery

	httpSrv *http.Server
	ln      net.Listener

	// baseCtx gates starting new cells; Shutdown cancels it after the
	// drain timeout so a stuck queue cannot hold the process hostage.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	usage     *runner.Usage
	stopUsage func()

	mu       sync.Mutex
	flights  map[string]*flight
	queued   int // admission charge: cells admitted but not yet finished
	draining bool
	counters Counters
	samples  []obs.Sample // latest sampled rows across computed cells

	computeMu  sync.Mutex
	computeLog *os.File

	wg sync.WaitGroup // background sweep resumption
}

// New opens (and recovers) the store and prepares a server. No listener
// is created yet and no pending sweep is resumed — Start does both.
func New(cfg Config) (*Server, error) {
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	st, rec, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	var logF *os.File
	if cfg.ComputeLog != "" {
		logF, err = os.OpenFile(cfg.ComputeLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("serve: compute log: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      st,
		Recovery:   rec,
		baseCtx:    ctx,
		baseCancel: cancel,
		usage:      &runner.Usage{},
		flights:    make(map[string]*flight),
		computeLog: logF,
	}
	s.httpSrv = &http.Server{Handler: s.routes()}
	return s, nil
}

// Start binds the listener, begins resuming any journaled pending sweeps
// in the background, and serves HTTP until Shutdown (or a fatal listener
// error). It returns once the listener is bound; serving continues on a
// background goroutine whose terminal error is delivered on the returned
// channel.
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.stopUsage = runner.Observe(s.usage)
	s.logf("ccserved listening on %s (store %s: %d objects, %d pending sweeps)",
		ln.Addr(), s.cfg.StoreDir, s.Recovery.Objects, len(s.Recovery.PendingSweeps))

	s.wg.Add(1)
	go s.resumePending()

	errc := make(chan error, 1)
	go func() {
		err := s.httpSrv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	return errc, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// resumePending re-executes every sweep the journal reported as accepted
// but unfinished. Cells completed before the crash are store hits, so a
// resumed sweep computes only what the crash actually lost.
func (s *Server) resumePending() {
	defer s.wg.Done()
	for _, p := range s.Recovery.PendingSweeps {
		spec, err := scenario.LoadBytes(p.Spec)
		if err != nil {
			s.logf("resume %s: journaled spec unreadable: %v", p.Fp, err)
			continue
		}
		cells, err := ExpandCells(spec)
		if err != nil {
			s.logf("resume %s: %v", p.Fp, err)
			continue
		}
		s.mu.Lock()
		s.counters.SweepsResumed++
		s.mu.Unlock()
		s.logf("resuming sweep %s (%d cells)", p.Fp, len(cells))
		res, err := s.runCells(p.Fp, cells, true)
		if err != nil {
			s.logf("resume %s: interrupted again: %v", p.Fp, err)
			continue
		}
		failed := 0
		for _, r := range res {
			if r.Status == StatusError {
				failed++
			}
		}
		// A cleanly completed resume retires the journal record; a resume
		// with failures stays pending so the next restart tries again.
		if failed == 0 {
			if err := s.store.EndSweep(p.Fp); err != nil {
				s.logf("resume %s: retiring journal record: %v", p.Fp, err)
			}
		}
		s.logf("resumed sweep %s: %d cells, %d failed", p.Fp, len(res), failed)
	}
}

// Shutdown drains gracefully: flip readiness, let in-flight requests and
// cells finish within DrainTimeout, then cancel the base context, wait
// for background work, checkpoint and close the store. The store close
// is unconditional — even a botched drain leaves a consistent journal.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	// Give background sweep resumption the remainder of the drain window
	// before cancelling: an interrupted resume stays journaled and costs a
	// restart, a completed one retires its record now.
	bg := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(bg)
	}()
	select {
	case <-bg:
	case <-ctx.Done():
	}
	s.baseCancel() // stop starting new cells; in-flight ones finish
	s.wg.Wait()
	if s.stopUsage != nil {
		s.stopUsage()
	}
	s.computeMu.Lock()
	if s.computeLog != nil {
		s.computeLog.Close()
	}
	s.computeMu.Unlock()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	s.logf("ccserved drained and checkpointed")
	return err
}

// Run is the blocking entry point used by cmd/ccserved: start, serve
// until SIGINT/SIGTERM or listener failure, then drain.
func Run(cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	errc, err := s.Start()
	if err != nil {
		s.store.Close()
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		s.logf("received %v, draining", sig)
	case err := <-errc:
		if err != nil {
			s.Shutdown()
			return err
		}
	}
	return s.Shutdown()
}

func (s *Server) logf(format string, args ...interface{}) {
	fmt.Fprintf(s.cfg.Out, "ccserved: "+format+"\n", args...)
}

// appendComputeLog records that a cell was actually computed (not served
// from the store). The write is flushed before Put's journal done record
// could matter: the log is an audit trail, so a crash may lose the line
// for a computed cell but can never invent one.
func (s *Server) appendComputeLog(fp string) {
	s.computeMu.Lock()
	defer s.computeMu.Unlock()
	if s.computeLog == nil {
		return
	}
	fmt.Fprintf(s.computeLog, "%s\n", fp)
	s.computeLog.Sync()
}
