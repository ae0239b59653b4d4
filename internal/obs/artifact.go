package obs

import (
	"encoding/json"
	"io"
	"os"

	"ccnuma/internal/config"
	"ccnuma/internal/stats"
)

// ArtifactSchema is the version tag of the run-artifact document. Bump it
// whenever a field changes meaning; trajectory tooling keys on it.
const ArtifactSchema = "ccnuma-run/v1"

// Artifact is the versioned, machine-readable record of one simulation run:
// the knobs that produced it, the headline metrics of the paper's tables,
// and the latency distributions with percentiles. It is the document that
// ccsim/ccsweep/cctables/ccchaos -json write and ccserved stores.
type Artifact struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	App    string `json:"app"`
	Arch   string `json:"arch"`
	Size   string `json:"size,omitempty"`
	// Seed is the workload/fault seed the run was launched with (0 when the
	// tool ran unseeded); with it, any chaos run replays exactly.
	Seed int64 `json:"seed,omitempty"`

	// Scenario embeds the canonical ccnuma-scenario/v1 document that
	// produced this run, byte-for-byte as internal/scenario canonicalized
	// it, and ScenarioFingerprint is its stable hash. Together they make
	// every artifact self-describing: `ccsim -replay artifact.json` re-runs
	// the embedded scenario and reproduces the artifact exactly.
	Scenario            json.RawMessage `json:"scenario,omitempty"`
	ScenarioFingerprint string          `json:"scenarioFingerprint,omitempty"`

	Config  ArtifactConfig  `json:"config"`
	Metrics ArtifactMetrics `json:"metrics"`

	// MissLatency is the cache-miss service-time distribution over all
	// processors; QueueDelay the arrival-to-dispatch delay distribution over
	// all controller engines.
	MissLatency HistogramDoc `json:"missLatency"`
	QueueDelay  HistogramDoc `json:"queueDelay"`

	Counters map[string]uint64 `json:"counters,omitempty"`

	// PenaltyVsBaselinePct is the PP penalty against a baseline run when the
	// producing tool had one (ccsweep's first architecture), else absent.
	PenaltyVsBaselinePct *float64 `json:"penaltyVsBaselinePct,omitempty"`

	// Recovery records fault-injection and NACK/retry recovery activity.
	// Absent unless the machine was Robust or faults were injected.
	Recovery *RecoveryDoc `json:"recovery,omitempty"`

	// Attribution is the per-stage causal decomposition of miss latency.
	// Absent unless the run enabled the attribution knob.
	Attribution *AttributionDoc `json:"attribution,omitempty"`

	// Perf records host engine throughput (events/sec, allocs/event) when
	// the producing tool measured it. It describes the host rather than the
	// simulated machine, so it is absent from artifacts that must be
	// byte-identical across runs.
	Perf *PerfDoc `json:"perf,omitempty"`
}

// RecoveryDoc is the fault/recovery section of a run artifact: what the
// fault layer injected, and how the protocol recovered. The embedded
// scenario records that the machine was Robust.
type RecoveryDoc struct {
	// Injection activity (what actually fired, by fault kind name).
	FaultsApplied map[string]uint64 `json:"faultsApplied,omitempty"`

	// Recovery activity.
	NacksSent   uint64 `json:"nacksSent"`
	NacksRecv   uint64 `json:"nacksRecv"`
	Retries     uint64 `json:"retries"`
	Timeouts    uint64 `json:"timeouts"`
	BusAborts   uint64 `json:"busAborts"`
	StrayDrops  uint64 `json:"strayDrops"`
	Retransmits uint64 `json:"linkRetransmits"`
	Overflows   uint64 `json:"niOverflows"`

	// RetryLatency is the issue-to-fill service-time distribution of
	// requests that needed at least one retry.
	RetryLatency HistogramDoc `json:"retryLatency"`

	// Failures classifies the runs of the producing campaign that did NOT
	// recover, machine-readably: a consumer deciding whether to re-run can
	// distinguish a pathological scenario (class "retry-budget-exhausted":
	// the protocol's fail-stop fired, re-running reproduces it) from an
	// unclassified fault. Empty when every run recovered.
	Failures []FailureDoc `json:"failures,omitempty"`
}

// Failure classes. A class is a stable, machine-readable name; Message is
// the human diagnostic.
const (
	// FailureRetryBudget marks the protocol's deterministic fail-stop:
	// re-running the same scenario reproduces the failure, so retrying is
	// pointless (the scenario itself is unserviceable).
	FailureRetryBudget = "retry-budget-exhausted"
	// FailurePanic is an unclassified panic; FailureError an unclassified
	// error return. Either may be transient from a harness's point of view
	// (worth a bounded retry).
	FailurePanic = "panic"
	FailureError = "error"
)

// FailureDoc is one classified run failure in a ccnuma-run/v1 artifact.
type FailureDoc struct {
	Class   string `json:"class"`
	Message string `json:"message"`
	// Seed identifies the failing run within a seeded campaign (0 outside
	// one).
	Seed int64 `json:"seed,omitempty"`
	// Node/Line/Attempts locate a retry-budget exhaustion (absent for
	// other classes). Line is hex-formatted for readability.
	Node     int    `json:"node,omitempty"`
	Line     string `json:"line,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// Pathological reports whether the failure is deterministic — re-running
// the identical scenario will fail the same way — so a serving layer must
// not spend retries on it.
func (f *FailureDoc) Pathological() bool {
	return f.Class == FailureRetryBudget
}

// AttributionDoc is the latency-attribution section of a run artifact:
// end-to-end miss latency decomposed cycle-exactly into stage segments
// over every completed transaction.
type AttributionDoc struct {
	Completed  uint64 `json:"completed"`
	Violations uint64 `json:"violations"` // conservation failures; must be 0
	// EndToEnd is the per-transaction end-to-end latency distribution: the
	// run's missLatency section, since every tracked miss is a transaction.
	EndToEnd HistogramDoc `json:"endToEnd"`
	// QueueSharePct is the share of all attributed cycles spent waiting in
	// protocol-engine input queues — the paper's occupancy bottleneck.
	QueueSharePct float64               `json:"queueSharePct"`
	Stages        []AttributionStageDoc `json:"stages"`
}

// AttributionStageDoc is one stage's aggregate share.
type AttributionStageDoc struct {
	Stage    string  `json:"stage"`
	Cycles   int64   `json:"cycles"`
	SharePct float64 `json:"sharePct"`
	// Hist is the per-transaction distribution of this stage's cycles,
	// over transactions that spent time in the stage.
	Hist HistogramDoc `json:"hist"`
}

// NewAttributionDoc reduces a run's attribution to its document form (nil
// when the run was not attributed). The completed count and end-to-end
// distribution are the run's miss-latency record.
func NewAttributionDoc(r *stats.Run) *AttributionDoc {
	a := r.Attribution
	if a == nil {
		return nil
	}
	doc := &AttributionDoc{
		Completed:     r.MissLatency.Count,
		Violations:    a.Violations,
		EndToEnd:      NewHistogramDoc(&r.MissLatency),
		QueueSharePct: 100 * a.StageShare("cc-queue"),
	}
	total := float64(r.MissLatency.Sum)
	for i := range a.Stages {
		st := &a.Stages[i]
		if st.Hist.Sum == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(st.Hist.Sum) / total
		}
		doc.Stages = append(doc.Stages, AttributionStageDoc{
			Stage:    st.Stage,
			Cycles:   st.Hist.Sum,
			SharePct: share,
			Hist:     NewHistogramDoc(&st.Hist),
		})
	}
	return doc
}

// LintReport is the document cclint -json emits: the number of packages
// analyzed and every remaining finding. cmd/cclint builds this struct
// directly, so the schema here is the schema on the wire.
type LintReport struct {
	Packages int              `json:"packages"`
	Findings []LintFindingDoc `json:"findings"`
}

// LintFindingDoc is one cclint diagnostic.
type LintFindingDoc struct {
	Pos     string `json:"pos"` // file:line:col
	Check   string `json:"check"`
	Message string `json:"message"`
}

// ArtifactConfig echoes the architectural parameters that shaped the run.
type ArtifactConfig struct {
	Nodes        int `json:"nodes"`
	ProcsPerNode int `json:"procsPerNode"`
	Engines      int `json:"engines"`
	// NodeArchs echoes the per-node controller overrides of heterogeneous
	// machines (empty for the homogeneous configurations).
	NodeArchs       []string `json:"nodeArchs,omitempty"`
	Split           string   `json:"split"`
	Arbitration     string   `json:"arbitration"`
	LineSize        int      `json:"lineSize"`
	NetLatency      int64    `json:"netLatencyCycles"`
	Topology        string   `json:"topology"`
	DirCacheEntries int      `json:"dirCacheEntries"`
}

// ArtifactMetrics carries the headline quantities of Tables 6 and 7.
type ArtifactMetrics struct {
	ExecCycles     int64   `json:"execCycles"`
	ExecNs         float64 `json:"execNs"`
	Instructions   uint64  `json:"instructions"`
	Requests       uint64  `json:"requests"` // requests to coherence controllers
	RCCPIx1000     float64 `json:"rccpiX1000"`
	UtilizationPct float64 `json:"utilizationPct"`
	QueueDelayNs   float64 `json:"queueDelayNs"`
	ArrivalPerUs   float64 `json:"arrivalPerUs"`
}

// HistogramDoc is a latency distribution with interpolated percentiles and
// the raw power-of-two buckets (only non-empty buckets are listed).
type HistogramDoc struct {
	Count      uint64      `json:"count"`
	MeanCycles float64     `json:"meanCycles"`
	P50        float64     `json:"p50Cycles"`
	P90        float64     `json:"p90Cycles"`
	P95        float64     `json:"p95Cycles"`
	P99        float64     `json:"p99Cycles"`
	MaxCycles  int64       `json:"maxCycles"`
	Buckets    []BucketDoc `json:"buckets,omitempty"`
}

// BucketDoc is one histogram bucket: values in [Lo, Hi).
type BucketDoc struct {
	Lo    int64  `json:"loCycles"`
	Hi    int64  `json:"hiCycles"`
	Count uint64 `json:"count"`
}

// NewHistogramDoc reduces a stats.Histogram to its document form.
func NewHistogramDoc(h *stats.Histogram) HistogramDoc {
	doc := HistogramDoc{
		Count:      h.Count,
		MeanCycles: h.Mean(),
		P50:        h.Percentile(50),
		P90:        h.Percentile(90),
		P95:        h.Percentile(95),
		P99:        h.Percentile(99),
		MaxCycles:  h.MaxVal,
	}
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := stats.BucketBounds(i)
		doc.Buckets = append(doc.Buckets, BucketDoc{Lo: lo, Hi: hi, Count: c})
	}
	return doc
}

// NewArtifact builds the run document from a finished run and its
// configuration. size may be empty when the tool has no size classes.
func NewArtifact(tool, size string, cfg *config.Config, r *stats.Run) *Artifact {
	qd := r.QueueDelayHistogram()
	return &Artifact{
		Schema: ArtifactSchema,
		Tool:   tool,
		App:    r.App,
		Arch:   r.Arch,
		Size:   size,
		Config: ArtifactConfig{
			Nodes:           cfg.Nodes,
			ProcsPerNode:    cfg.ProcsPerNode,
			Engines:         cfg.EngineCount(),
			NodeArchs:       cfg.NodeArchs,
			Split:           cfg.Split.String(),
			Arbitration:     cfg.Arbitration.String(),
			LineSize:        cfg.LineSize,
			NetLatency:      int64(cfg.NetLatency),
			Topology:        cfg.Topology.String(),
			DirCacheEntries: cfg.DirCacheEntries,
		},
		Metrics: ArtifactMetrics{
			ExecCycles:     int64(r.ExecTime),
			ExecNs:         r.ExecTime.Nanoseconds(),
			Instructions:   r.Instructions,
			Requests:       r.TotalArrivals(),
			RCCPIx1000:     1000 * r.RCCPI(),
			UtilizationPct: 100 * r.AvgUtilization(-1),
			QueueDelayNs:   r.AvgQueueDelayNs(-1),
			ArrivalPerUs:   r.ArrivalRatePerMicrosecond(),
		},
		MissLatency: NewHistogramDoc(&r.MissLatency),
		QueueDelay:  NewHistogramDoc(&qd),
		Counters:    r.Counters,
		Attribution: NewAttributionDoc(r),
	}
}

// NewRecoveryDoc builds the fault/recovery section from a finished run's
// counters. faultsApplied is the injector's name → count map (nil when the
// run had no fault schedule).
func NewRecoveryDoc(r *stats.Run, faultsApplied map[string]uint64) *RecoveryDoc {
	ns, nr, rt, to, ba, sd := r.RecoveryTotals()
	rl := r.RetryLatencyHistogram()
	return &RecoveryDoc{
		FaultsApplied: faultsApplied,
		NacksSent:     ns,
		NacksRecv:     nr,
		Retries:       rt,
		Timeouts:      to,
		BusAborts:     ba,
		StrayDrops:    sd,
		Retransmits:   r.Counter("linkRetransmits"),
		Overflows:     r.Counter("niOverflows"),
		RetryLatency:  NewHistogramDoc(&rl),
	}
}

// WriteJSON emits the artifact as indented JSON.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// WriteFile writes the artifact document to path.
func (a *Artifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = a.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteArtifactsFile writes several artifacts (e.g. one per sweep point) as
// a JSON array document.
func WriteArtifactsFile(path string, arts []*Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(arts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
