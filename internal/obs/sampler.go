package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"ccnuma/internal/sim"
)

// Sample is one time-series observation of one protocol engine and its
// node-level surroundings. The machine emits one row per (tick, node,
// engine); node-level columns (bus, banks, directory DRAM, NI ports) repeat
// on every engine row of the node so each row is self-contained for
// plotting. Utilizations are percentages of the sampling interval; backlogs
// are how far ahead of the current cycle a port is already committed.
type Sample struct {
	At     int64 `json:"t"`      // simulated cycle of the sample
	Node   int   `json:"node"`   // node index
	Engine int   `json:"engine"` // protocol-engine index within the node

	EngineUtilPct float64 `json:"engineUtilPct"` // engine occupancy over the interval
	EngineBusy    bool    `json:"engineBusy"`    // a handler is executing right now
	RespQ         int     `json:"respQ"`         // network-response queue depth
	ReqQ          int     `json:"reqQ"`          // network-request queue depth
	BusQ          int     `json:"busQ"`          // bus-request queue depth

	BusAddrUtilPct float64 `json:"busAddrUtilPct"` // address-bus occupancy
	BusDataUtilPct float64 `json:"busDataUtilPct"` // data-bus occupancy
	BankUtilPct    float64 `json:"bankUtilPct"`    // mean memory-bank occupancy
	DirDRAMUtilPct float64 `json:"dirDramUtilPct"` // directory-DRAM occupancy

	NIOutBacklog int64 `json:"niOutBacklogCycles"` // output-port commitment beyond now
	NIInBacklog  int64 `json:"niInBacklogCycles"`  // input-port commitment beyond now

	// Robustness columns (all zero unless Config.Robust). QueueCap is
	// the configured per-queue depth limit so plots can show depth against
	// capacity; Nacks/Retries are this node's deltas over the interval;
	// Overflows is the machine-wide NI output-buffer overflow delta
	// (repeated on every row of the tick).
	QueueCap    int    `json:"queueCap"`    // configured input-queue capacity (0 = unbounded)
	NIOutQueued int    `json:"niOutQueued"` // messages held in the node's NI output buffer
	Nacks       uint64 `json:"nacks"`       // NACKs sent by this node in the interval
	Retries     uint64 `json:"retries"`     // re-issues by this node in the interval
	Overflows   uint64 `json:"overflows"`   // machine-wide NI overflow delta in the interval
}

// Sampler accumulates periodic samples for CSV/JSON emission. The machine
// probes its components every Interval simulated cycles and calls Add.
type Sampler struct {
	Interval sim.Time
	samples  []Sample
}

// NewSampler creates a sampler with the given simulated-time interval.
func NewSampler(interval sim.Time) *Sampler {
	if interval <= 0 {
		interval = 10_000
	}
	return &Sampler{Interval: interval}
}

// Add appends one observation.
func (s *Sampler) Add(smp Sample) { s.samples = append(s.samples, smp) }

// Samples returns all accumulated rows in emission order.
func (s *Sampler) Samples() []Sample { return s.samples }

// UtilPct converts a busy-time delta over the sampling interval to a
// percentage, clamped to [0, 100] (occupancy is charged at acquire time, so
// a burst can momentarily exceed the interval).
func (s *Sampler) UtilPct(busyDelta sim.Time) float64 {
	if s.Interval <= 0 {
		return 0
	}
	pct := 100 * float64(busyDelta) / float64(s.Interval)
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	return pct
}

// csvHeader lists the CSV columns in Sample field order.
var csvHeader = []string{
	"t", "node", "engine", "engine_util_pct", "engine_busy",
	"resp_q", "req_q", "bus_q",
	"bus_addr_util_pct", "bus_data_util_pct", "bank_util_pct", "dir_dram_util_pct",
	"ni_out_backlog_cycles", "ni_in_backlog_cycles",
	"queue_cap", "ni_out_queued", "nacks", "retries", "overflows",
}

// WriteCSV emits the samples as CSV with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, strings.Join(csvHeader, ",")); err != nil {
		return err
	}
	for i := range s.samples {
		r := &s.samples[i]
		busy := 0
		if r.EngineBusy {
			busy = 1
		}
		_, err := fmt.Fprintf(bw, "%d,%d,%d,%.2f,%d,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%d,%d,%d,%d,%d,%d,%d\n",
			r.At, r.Node, r.Engine, r.EngineUtilPct, busy,
			r.RespQ, r.ReqQ, r.BusQ,
			r.BusAddrUtilPct, r.BusDataUtilPct, r.BankUtilPct, r.DirDRAMUtilPct,
			r.NIOutBacklog, r.NIInBacklog,
			r.QueueCap, r.NIOutQueued, r.Nacks, r.Retries, r.Overflows)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// samplerDoc wraps the JSON form with the interval for self-description.
type samplerDoc struct {
	IntervalCycles int64    `json:"intervalCycles"`
	Samples        []Sample `json:"samples"`
}

// WriteJSON emits the samples as a JSON document.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(samplerDoc{IntervalCycles: int64(s.Interval), Samples: s.samples})
}

// WriteFile writes JSON when path ends in .json, CSV otherwise.
func (s *Sampler) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = s.WriteJSON(f)
	} else {
		err = s.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
