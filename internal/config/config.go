// Package config holds every architectural parameter of the simulated
// CC-NUMA machine: the geometry (nodes, processors per node), the cache and
// memory hierarchy, the SMP bus and network timings of the paper's Table 1,
// and the protocol-engine sub-operation occupancies of Table 2. All times
// are in compute-processor cycles (5 ns at 200 MHz).
package config

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"ccnuma/internal/sim"
)

// EngineKind selects the protocol-engine implementation inside the
// coherence controller.
type EngineKind int

const (
	// HWC is the custom-hardware finite-state-machine engine (100 MHz,
	// on-chip registers, bit operations folded into other actions).
	HWC EngineKind = iota
	// PPC is the commodity protocol processor (200 MHz PowerPC) that talks
	// to the bus and network interfaces through memory-mapped off-chip
	// registers on the controller's local bus.
	PPC
	// PPCA is the paper's Section 5 proposal, implemented here as an
	// extension: a commodity protocol processor with incremental custom
	// hardware accelerating the common handler actions (a hardware
	// dispatch assist and a message-send/data-path assist), keeping the
	// protocol programmable.
	PPCA

	numEngineKinds
)

// NumEngineKinds is the number of engine implementations.
const NumEngineKinds = int(numEngineKinds)

func (k EngineKind) String() string {
	switch k {
	case HWC:
		return "HWC"
	case PPC:
		return "PPC"
	case PPCA:
		return "PPCA"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// MarshalText renders the engine kind as its paper name, so scenario
// documents say "PPC" instead of an opaque integer.
func (k EngineKind) MarshalText() ([]byte, error) {
	if k < 0 || k >= EngineKind(numEngineKinds) {
		return nil, fmt.Errorf("config: unknown engine kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses a paper engine-kind name.
func (k *EngineKind) UnmarshalText(text []byte) error {
	kind, err := ParseEngineKind(string(text))
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// ParseEngineKind resolves an engine-kind name (HWC, PPC, PPCA).
func ParseEngineKind(name string) (EngineKind, error) {
	switch name {
	case "HWC":
		return HWC, nil
	case "PPC":
		return PPC, nil
	case "PPCA":
		return PPCA, nil
	default:
		return 0, fmt.Errorf("config: unknown engine kind %q", name)
	}
}

// SplitPolicy selects how requests are distributed over two protocol
// engines.
type SplitPolicy int

const (
	// SplitLocalRemote is the paper's (and S3.mp's) policy: the local
	// protocol engine (LPE) handles requests for addresses whose home is
	// this node, the remote protocol engine (RPE) handles the rest. Only
	// the LPE touches the directory.
	SplitLocalRemote SplitPolicy = iota
	// SplitRoundRobin alternates requests between the engines regardless
	// of address; it is the "more even" alternative the paper discusses
	// (and would require both engines to reach the directory).
	SplitRoundRobin
	// SplitRegion interleaves memory regions across all engines (the
	// paper's Section 5 "more protocol engines for different regions of
	// memory"); every engine needs a directory path. Required when more
	// than two engines are configured.
	SplitRegion
	// SplitDynamic assigns each request to the engine with the shortest
	// queue — the paper's "splitting the workload dynamically" alternative
	// (which it notes requires every engine to access the directory,
	// "increasing the cost and complexity of coherence controllers").
	SplitDynamic
)

func (p SplitPolicy) String() string {
	switch p {
	case SplitRoundRobin:
		return "round-robin"
	case SplitRegion:
		return "region"
	case SplitDynamic:
		return "dynamic"
	default:
		return "local/remote"
	}
}

// MarshalText renders the split policy for scenario documents; the
// canonical form is the flag spelling ("local-remote", not "local/remote").
func (p SplitPolicy) MarshalText() ([]byte, error) {
	if p == SplitLocalRemote {
		return []byte("local-remote"), nil
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses a split-policy name; "local/remote" and
// "local-remote" are synonyms.
func (p *SplitPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "local-remote", "local/remote":
		*p = SplitLocalRemote
	case "round-robin":
		*p = SplitRoundRobin
	case "region":
		*p = SplitRegion
	case "dynamic":
		*p = SplitDynamic
	default:
		return fmt.Errorf("config: unknown split policy %q", text)
	}
	return nil
}

// ArbPolicy selects the dispatch arbitration between the controller's three
// input queues.
type ArbPolicy int

const (
	// ArbPaper is the paper's policy: network responses first, then network
	// requests, then bus requests, except that a bus request that has
	// waited through LivelockLimit network-request dispatches proceeds
	// before further network requests.
	ArbPaper ArbPolicy = iota
	// ArbFIFO dispatches strictly in arrival order (ablation).
	ArbFIFO
)

func (p ArbPolicy) String() string {
	if p == ArbFIFO {
		return "fifo"
	}
	return "paper"
}

// MarshalText renders the arbitration policy for scenario documents.
func (p ArbPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses an arbitration-policy name.
func (p *ArbPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "paper":
		*p = ArbPaper
	case "fifo":
		*p = ArbFIFO
	default:
		return fmt.Errorf("config: unknown arbitration %q", text)
	}
	return nil
}

// SubOp enumerates the protocol-engine sub-operations of the paper's
// Table 2. A protocol handler is a sequence of sub-operations; its occupancy
// is the sum of their costs for the engine kind in use.
type SubOp int

const (
	// OpDispatch receives and decodes the next request and jumps to its
	// handler (for PPC: read the dispatch-controller register, decode,
	// branch).
	OpDispatch SubOp = iota
	// OpReadBusReg reads a special bus-interface register.
	OpReadBusReg
	// OpWriteBusReg writes a special bus-interface register.
	OpWriteBusReg
	// OpReadNIReg reads a special network-interface register.
	OpReadNIReg
	// OpWriteNIReg writes a special network-interface register.
	OpWriteNIReg
	// OpLatchHeader extracts the request's type and address from the
	// already-fetched dispatch information (the PP's 14-cycle dispatch
	// includes the uncached read of the dispatch-controller register, so
	// both engines pay only a decode here).
	OpLatchHeader
	// OpAssocSearch searches the pending-transaction (MSHR) table: a CAM
	// lookup for HWC, a cached software table probe for the PP.
	OpAssocSearch
	// OpDirCacheRead reads a directory entry that hits in the directory
	// cache (HWC: custom on-chip cache; PPC: the PP's on-chip data cache).
	OpDirCacheRead
	// OpDirCacheWrite writes a directory entry through the directory cache.
	OpDirCacheWrite
	// OpSendHeader composes and sends a network message header (PPC: three
	// uncached stores to NI registers).
	OpSendHeader
	// OpStartDataXfer triggers the direct bus-interface/network-interface
	// data transfer with a single special-register write.
	OpStartDataXfer
	// OpBitField sets, clears, or extracts a bit field (HWC folds these
	// into other actions at zero cost).
	OpBitField
	// OpCondition decides a condition or branch (HWC decides multiple
	// conditions in one cycle at zero marginal cost).
	OpCondition
	// OpCompute is one cycle-equivalent of miscellaneous handler
	// computation.
	OpCompute

	numSubOps
)

var subOpNames = [...]string{
	"dispatch handler",
	"read special bus interface register",
	"write special bus interface register",
	"read special network interface register",
	"write special network interface register",
	"latch request header",
	"pending-transaction table search",
	"directory cache read",
	"directory cache write",
	"compose and send message header",
	"start direct data transfer",
	"bit field operation",
	"decide condition",
	"other computation",
}

func (op SubOp) String() string {
	if op >= 0 && int(op) < len(subOpNames) {
		return subOpNames[op]
	}
	return fmt.Sprintf("SubOp(%d)", int(op))
}

// NumSubOps is the number of defined sub-operations.
const NumSubOps = int(numSubOps)

// subOpKeys are the compact scenario-schema keys of the sub-operations, in
// SubOp order (the long forms in subOpNames stay the human-readable table
// labels).
var subOpKeys = [...]string{
	"dispatch",
	"readBusReg",
	"writeBusReg",
	"readNIReg",
	"writeNIReg",
	"latchHeader",
	"assocSearch",
	"dirCacheRead",
	"dirCacheWrite",
	"sendHeader",
	"startDataXfer",
	"bitField",
	"condition",
	"compute",
}

// Key returns the scenario-schema key of the sub-operation.
func (op SubOp) Key() string {
	if op >= 0 && int(op) < len(subOpKeys) {
		return subOpKeys[op]
	}
	return fmt.Sprintf("subOp%d", int(op))
}

// CostTable gives the occupancy of each sub-operation for each engine kind,
// in compute-processor cycles (Table 2 of the paper, plus the PPCA
// extension column).
type CostTable [numSubOps][numEngineKinds]sim.Time

// Cost returns the occupancy of op on engine kind k.
func (t *CostTable) Cost(k EngineKind, op SubOp) sim.Time { return t[op][k] }

// MarshalJSON renders the table as an object keyed by sub-operation, each
// value the [HWC, PPC, PPCA] occupancy row — the scenario schema's Table 2
// representation. Keys are emitted in SubOp order, so the canonical bytes
// are stable.
func (t CostTable) MarshalJSON() ([]byte, error) {
	var b []byte
	b = append(b, '{')
	for op := SubOp(0); op < numSubOps; op++ {
		if op > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("%q:[%d,%d,%d]", op.Key(),
			int64(t[op][HWC]), int64(t[op][PPC]), int64(t[op][PPCA]))...)
	}
	b = append(b, '}')
	return b, nil
}

// UnmarshalJSON merges a keyed cost object into the table: rows present in
// the document replace the current values (so a scenario can override a
// single Table 2 row and inherit the rest), unknown keys are rejected.
func (t *CostTable) UnmarshalJSON(data []byte) error {
	var rows map[string][]int64
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("config: costs: %w", err)
	}
	index := make(map[string]SubOp, numSubOps)
	for op := SubOp(0); op < numSubOps; op++ {
		index[op.Key()] = op
	}
	for key, row := range rows {
		op, ok := index[key]
		if !ok {
			return fmt.Errorf("config: costs: unknown sub-operation %q", key)
		}
		if len(row) != NumEngineKinds {
			return fmt.Errorf("config: costs: %q has %d columns, want %d (HWC, PPC, PPCA)",
				key, len(row), NumEngineKinds)
		}
		for k := 0; k < NumEngineKinds; k++ {
			t[op][k] = sim.Time(row[k])
		}
	}
	return nil
}

// DefaultCosts reflects the paper's Table 2 assumptions:
//   - HWC accesses to on-chip registers take one system cycle (2 CPU
//     cycles); bit operations and conditions are combined with other
//     actions (zero marginal cost).
//   - PP reads of off-chip registers take 4 system cycles (8 CPU cycles),
//     +1 system cycle (2 CPU cycles) for an associative search; PP writes
//     take 2 system cycles (4 CPU cycles); PP compute cycles follow
//     compiled PowerPC instruction counts (about 2 CPU cycles per simple
//     operation here).
//
// The PPCA column models the paper's Section 5 proposal of incremental
// custom hardware added to a protocol processor: a hardware dispatch
// assist (request pre-decoded into on-chip registers), single-store
// message-send and data-path assists, and hardware bit-field extraction;
// the remaining sub-operations keep the commodity-PP costs.
func DefaultCosts() CostTable {
	var t CostTable
	set := func(op SubOp, hwc, ppc, ppca sim.Time) { t[op] = [numEngineKinds]sim.Time{hwc, ppc, ppca} }
	set(OpDispatch, 2, 14, 6)
	set(OpReadBusReg, 2, 8, 8)
	set(OpWriteBusReg, 2, 4, 4)
	set(OpReadNIReg, 2, 8, 8)
	set(OpWriteNIReg, 2, 4, 4)
	set(OpLatchHeader, 2, 2, 2)
	set(OpAssocSearch, 2, 6, 4)
	set(OpDirCacheRead, 2, 2, 2)
	set(OpDirCacheWrite, 2, 2, 2)
	set(OpSendHeader, 2, 8, 4)
	set(OpStartDataXfer, 2, 4, 2)
	set(OpBitField, 0, 2, 0)
	set(OpCondition, 0, 2, 2)
	set(OpCompute, 0, 2, 2)
	return t
}

// Config is the complete parameter set for one simulation. Use Base() and
// mutate copies; the struct is plain data and safe to copy.
//
// Every exported field carries a JSON tag: the struct doubles as the
// machine section of the ccnuma-scenario/v1 document (internal/scenario),
// and cclint's config-schema check rejects fields that would silently
// bypass -spec.
type Config struct {
	// Geometry.
	Nodes        int `json:"nodes"`        // SMP nodes in the machine
	ProcsPerNode int `json:"procsPerNode"` // compute processors per node

	// Controller architecture.
	Engine EngineKind `json:"engine"`
	// NumEngines is the protocol-engine count per controller (0 means one):
	// two is the paper's 2HWC / 2PPC designs, more is the paper's Section 5
	// extension and requires the region or round-robin split.
	NumEngines  int         `json:"numEngines"`
	Split       SplitPolicy `json:"split"`
	Arbitration ArbPolicy   `json:"arbitration"`
	// NodeArchs, when non-empty, configures heterogeneous controllers:
	// entry i names node i's architecture ("HWC", "2PPC", ...; an empty
	// entry inherits Engine/NumEngines). The paper's Section 5
	// discussion of asymmetric designs — e.g. custom-hardware home nodes
	// serving commodity protocol-processor remotes — is expressed here.
	NodeArchs []string `json:"nodeArchs,omitempty"`
	// RegionBytes is the interleaving granularity of SplitRegion.
	RegionBytes int `json:"regionBytes"`
	// LivelockLimit is the number of consecutive network-request dispatches
	// after which a waiting bus request is served first (paper: "e.g. four").
	LivelockLimit int `json:"livelockLimit"`

	// Cache hierarchy.
	LineSize int `json:"lineSize"` // bytes per cache line (base: 128)
	L1Size   int `json:"l1Size"`   // bytes (16 KB)
	L1Assoc  int `json:"l1Assoc"`
	L2Size   int `json:"l2Size"` // bytes (1 MB)
	L2Assoc  int `json:"l2Assoc"`
	// L1HitTime and L2HitTime are load-to-use latencies; L2MissDetect is
	// the time to discover an L2 miss and issue the bus request (Table 3:
	// "detect L2 miss" = 8).
	L1HitTime    sim.Time `json:"l1HitTime"`
	L2HitTime    sim.Time `json:"l2HitTime"`
	L2MissDetect sim.Time `json:"l2MissDetect"`

	// SMP bus (100 MHz, 16 bytes wide, fully pipelined, split transaction,
	// separate address and data buses).
	BusCycle     sim.Time `json:"busCycle"`     // CPU cycles per bus cycle (2)
	AddrStrobe   sim.Time `json:"addrStrobe"`   // address strobe to next address strobe (4)
	BusArb       sim.Time `json:"busArb"`       // arbitration before the strobe
	MemAccess    sim.Time `json:"memAccess"`    // address strobe to start of data from memory (20)
	CacheToCache sim.Time `json:"cacheToCache"` // address strobe to start of data from another cache
	CriticalQuad sim.Time `json:"criticalQuad"` // data start to critical quad word delivered
	FillRestart  sim.Time `json:"fillRestart"`  // L2/L1 fill to processor restart
	BusRetry     sim.Time `json:"busRetry"`     // back-off before re-arbitrating a retried transaction
	MemBanks     int      `json:"memBanks"`     // interleaved banks per node
	BankBusy     sim.Time `json:"bankBusy"`     // bank occupancy per line access

	// Network (Table 1: point-to-point 14 cycles = 70 ns; 32-byte links).
	NetLatency   sim.Time `json:"netLatency"`   // point-to-point latency (crossbar) / router cut-through (mesh)
	NetFlitBytes int      `json:"netFlitBytes"` // link width per flit
	NetFlitTime  sim.Time `json:"netFlitTime"`  // cycles per flit on a port (100 MHz link: 2)
	NetHeader    int      `json:"netHeader"`    // header bytes per message
	// Topology selects the interconnect structure; NetHopLatency is the
	// per-hop router+wire latency of the 2-D mesh.
	Topology      Topology `json:"topology"`
	NetHopLatency sim.Time `json:"netHopLatency"`

	// Directory.
	DirCacheEntries int      `json:"dirCacheEntries"` // write-through directory cache entries (8K)
	DirDRAMRead     sim.Time `json:"dirDRAMRead"`     // controller-side DRAM directory read
	DirDRAMWrite    sim.Time `json:"dirDRAMWrite"`    // controller-side DRAM directory write

	// Protocol-engine sub-operation occupancies (Table 2).
	Costs CostTable `json:"costs"`

	// Memory layout.
	PageSize  int             `json:"pageSize"` // bytes per page for placement
	Placement PlacementPolicy `json:"placement"`

	// Synchronization.
	BarrierCost sim.Time `json:"barrierCost"` // fixed cost of a barrier episode
	LockRetry   sim.Time `json:"lockRetry"`   // back-off before a queued lock retry

	// SimLimit bounds simulated time to catch protocol livelock (0 = none).
	SimLimit sim.Time `json:"simLimit"`

	// Attribution enables per-transaction causal latency attribution: every
	// miss episode carries a span ID and each component checkpoints the
	// stage it contributes (see internal/obs). Off by default; the disabled
	// path records nothing and leaves event schedules byte-identical.
	// omitempty keeps canonical scenario encodings (and their fingerprints)
	// unchanged when the knob is off.
	Attribution bool `json:"attribution,omitempty"`

	// SimShards splits one simulation across this many event-engine shards
	// executed on separate OS threads, synchronized in conservative time
	// windows one network latency wide (see internal/sim's Cluster). Nodes
	// are assigned to shards in contiguous blocks; 0 or 1 runs the literal
	// serial event loop. Results are byte-identical for any value (pinned
	// by the golden determinism tests), so the knob is excluded from
	// canonical scenario encodings and fingerprints — it tunes the host,
	// not the experiment.
	SimShards int `json:"simShards,omitempty"`

	// Robust turns on the recovery layer (DESIGN §10), an extension beyond
	// the paper's idealized machine: finite controller and NI queues with
	// NACK/retry flow control, request timeouts, exponential bus back-off
	// and a reliable link layer, tuned by the Robust* constants. Off, the
	// recovery code is inert and runs stay cycle-identical to the paper's
	// model (pinned by the golden test in internal/workload).
	Robust bool `json:"robust"`
}

// The robustness preset: the recovery layer's tuning on a Robust machine.
// Times are in compute-processor cycles.
const (
	// RobustQueueDepth bounds each protocol engine's request and bus input
	// queues: a network request arriving at a full queue is NACKed back to
	// its requester, a bus request is aborted on the bus (the requester
	// backs off and retries). Response queues stay unbounded: responses
	// sink into reserved MSHR slots, so bounding them could deadlock.
	RobustQueueDepth = 16
	// RobustNIPortDepth bounds each node's NI output buffer, in messages;
	// further sends park in FIFO order until the port drains.
	RobustNIPortDepth = 32
	// RobustNackDelay is the base back-off before a NACKed request is
	// re-issued; it doubles per consecutive NACK up to RobustNackBackoffMax.
	RobustNackDelay      sim.Time = 30
	RobustNackBackoffMax sim.Time = 2000
	// RobustRetryBudget bounds consecutive NACK/timeout retries of one
	// request; exhausting it panics with a diagnosis.
	RobustRetryBudget = 25
	// RobustRequestTimeout re-issues an MSHR request that has seen no
	// response for this long, recovering transactions lost to faults.
	RobustRequestTimeout sim.Time = 50_000
	// RobustNetRetryDelay is the reliable link's retransmission delay. The
	// link models CRC checks, sequence numbers and a sender-side replay
	// buffer: dropped or corrupted frames are re-sent and duplicates are
	// discarded at the receiving NI. Without Robust, injected network
	// faults reach the protocol raw (as the verify detection tests need).
	RobustNetRetryDelay sim.Time = 100
	// RobustBusBackoffMax caps the processors' bus back-off, which doubles
	// from BusRetry per consecutive abort, shedding bus load under NACK
	// storms.
	RobustBusBackoffMax sim.Time = 640
)

// WithRobustness returns a copy of c with the recovery layer on.
func (c Config) WithRobustness() Config {
	c.Robust = true
	return c
}

// Topology selects the interconnect structure.
type Topology int

const (
	// TopoCrossbar is the paper's IBM switch: a single-stage network with
	// one fixed point-to-point latency between any pair of nodes.
	TopoCrossbar Topology = iota
	// TopoMesh2D is a 2-D mesh with dimension-order (X then Y) routing:
	// latency grows with Manhattan distance and messages contend for the
	// individual links along their route (an extension beyond the paper's
	// switch, for studying topology sensitivity).
	TopoMesh2D
)

func (t Topology) String() string {
	if t == TopoMesh2D {
		return "mesh2d"
	}
	return "crossbar"
}

// MarshalText renders the topology for scenario documents.
func (t Topology) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses a topology name; "mesh" is the flag spelling of
// "mesh2d".
func (t *Topology) UnmarshalText(text []byte) error {
	switch string(text) {
	case "crossbar":
		*t = TopoCrossbar
	case "mesh", "mesh2d":
		*t = TopoMesh2D
	default:
		return fmt.Errorf("config: unknown topology %q", text)
	}
	return nil
}

// PlacementPolicy selects how pages are assigned home nodes.
type PlacementPolicy int

const (
	// PlaceRoundRobin assigns pages to nodes round-robin (the paper's
	// default policy).
	PlaceRoundRobin PlacementPolicy = iota
	// PlaceFirstTouch assigns a page to the node of the first processor
	// that touches it after initialization.
	PlaceFirstTouch
)

func (p PlacementPolicy) String() string {
	if p == PlaceFirstTouch {
		return "first-touch"
	}
	return "round-robin"
}

// MarshalText renders the placement policy for scenario documents.
func (p PlacementPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a placement-policy name.
func (p *PlacementPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "round-robin":
		*p = PlaceRoundRobin
	case "first-touch":
		*p = PlaceFirstTouch
	default:
		return fmt.Errorf("config: unknown placement policy %q", text)
	}
	return nil
}

// Base returns the paper's base system configuration: 16 four-processor SMP
// nodes, 128-byte lines, 16 KB L1 / 1 MB L2 4-way LRU caches, 100 MHz
// 16-byte split-transaction bus, 70 ns network, HWC controller with one
// engine.
func Base() Config {
	return Config{
		Nodes:        16,
		ProcsPerNode: 4,

		Engine:        HWC,
		NumEngines:    1,
		Split:         SplitLocalRemote,
		RegionBytes:   4096,
		Arbitration:   ArbPaper,
		LivelockLimit: 4,

		LineSize:     128,
		L1Size:       16 * 1024,
		L1Assoc:      4,
		L2Size:       1024 * 1024,
		L2Assoc:      4,
		L1HitTime:    1,
		L2HitTime:    8,
		L2MissDetect: 8,

		BusCycle:     2,
		AddrStrobe:   4,
		BusArb:       4,
		MemAccess:    20,
		CacheToCache: 16,
		CriticalQuad: 4,
		FillRestart:  10,
		BusRetry:     20,
		MemBanks:     4,
		BankBusy:     40,

		NetLatency:    14,
		NetFlitBytes:  32,
		NetFlitTime:   2,
		NetHeader:     8,
		Topology:      TopoCrossbar,
		NetHopLatency: 4,

		DirCacheEntries: 8192,
		DirDRAMRead:     20,
		DirDRAMWrite:    20,

		Costs: DefaultCosts(),

		PageSize:  4096,
		Placement: PlaceRoundRobin,

		BarrierCost: 200,
		LockRetry:   40,
	}
}

// TotalProcs returns the machine's processor count.
func (c *Config) TotalProcs() int { return c.Nodes * c.ProcsPerNode }

// LineDataFlits returns the number of network flits occupied by a message
// carrying one cache line plus a header.
func (c *Config) LineDataFlits() int {
	return (c.LineSize + c.NetHeader + c.NetFlitBytes - 1) / c.NetFlitBytes
}

// ControlFlits returns the flits occupied by a header-only control message.
func (c *Config) ControlFlits() int {
	return (c.NetHeader + c.NetFlitBytes - 1) / c.NetFlitBytes
}

// BusDataTime returns the data-bus occupancy of a full cache-line transfer
// (16 bytes per 100 MHz bus cycle).
func (c *Config) BusDataTime() sim.Time {
	cycles := (c.LineSize + 15) / 16
	return sim.Time(cycles) * c.BusCycle
}

// FieldError is a validation failure that names the offending
// configuration field; callers can errors.As it out of Validate's result
// to map a failure back to the scenario-schema field.
type FieldError struct {
	Field string // Config field name (e.g. "Nodes", "NodeArchs[3]")
	Err   error
}

func (e *FieldError) Error() string { return "config: " + e.Field + ": " + e.Err.Error() }

func (e *FieldError) Unwrap() error { return e.Err }

// fieldErr builds a FieldError for field with a formatted description.
func fieldErr(field, format string, args ...interface{}) error {
	return &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// MaxNodes is the widest machine the directory's full sharer bit map
// (directory.Bitmap, one uint64) can describe.
const MaxNodes = 64

// Bounds on the other sizes machine.New allocates from, each well above
// what the experiments, examples and tests build (8 processors per node,
// 4 engines, 4 banks, 8K directory-cache entries, 1 MB L2s at 64 nodes).
// MaxEngines bounds NumEngines and every NodeArchs count. MaxCacheLines
// bounds TotalProcs × (L1Size+L2Size)/LineSize, because cache.New
// allocates every way up front. The largest machine they admit builds in
// about 330 MB.
const (
	MaxProcsPerNode    = 64
	MaxEngines         = 16
	MaxMemBanks        = 1024
	MaxDirCacheEntries = 1 << 16
	MaxCacheLines      = 1 << 24
)

// DirCacheAssoc is the associativity of the directory cache.
const DirCacheAssoc = 4

// powerOfTwoSets reports whether n entries fill a power-of-two number of
// sets of setSize entries each: the only geometry cache.New builds.
func powerOfTwoSets(n, setSize int) bool {
	sets := n / setSize
	return n > 0 && n%setSize == 0 && sets&(sets-1) == 0
}

// Validate checks internal consistency and returns a *FieldError naming
// the offending field for the first problem found.
func (c *Config) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Nodes > MaxNodes:
		return fieldErr("Nodes", "must be in 1..%d (the directory's sharer bit map), got %d", MaxNodes, c.Nodes)
	case c.ProcsPerNode <= 0 || c.ProcsPerNode > MaxProcsPerNode:
		return fieldErr("ProcsPerNode", "must be in 1..%d, got %d", MaxProcsPerNode, c.ProcsPerNode)
	case c.Nodes&(c.Nodes-1) != 0 && c.Topology != TopoCrossbar:
		return fieldErr("Nodes", "must be a power of two for topology %v, got %d", c.Topology, c.Nodes)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fieldErr("LineSize", "must be a positive power of two, got %d", c.LineSize)
	case c.PageSize < c.LineSize || c.PageSize&(c.PageSize-1) != 0:
		return fieldErr("PageSize", "must be a power of two >= LineSize, got %d", c.PageSize)
	case c.L1Assoc <= 0:
		return fieldErr("L1Assoc", "must be positive, got %d", c.L1Assoc)
	case c.L2Assoc <= 0:
		return fieldErr("L2Assoc", "must be positive, got %d", c.L2Assoc)
	case !powerOfTwoSets(c.L1Size, c.L1Assoc*c.LineSize):
		return fieldErr("L1Size", "geometry %d/%d-way/%dB is not a power-of-two number of sets", c.L1Size, c.L1Assoc, c.LineSize)
	case !powerOfTwoSets(c.L2Size, c.L2Assoc*c.LineSize):
		return fieldErr("L2Size", "geometry %d/%d-way/%dB is not a power-of-two number of sets", c.L2Size, c.L2Assoc, c.LineSize)
	case uint64(c.L1Size/c.LineSize)+uint64(c.L2Size/c.LineSize) > MaxCacheLines/uint64(c.TotalProcs()):
		return fieldErr("L2Size", "%d processors with %d+%d cache lines each exceed the limit of %d simulated lines",
			c.TotalProcs(), c.L1Size/c.LineSize, c.L2Size/c.LineSize, MaxCacheLines)
	case c.MemBanks <= 0 || c.MemBanks > MaxMemBanks:
		return fieldErr("MemBanks", "must be in 1..%d, got %d", MaxMemBanks, c.MemBanks)
	case c.Engine < 0 || c.Engine >= EngineKind(numEngineKinds):
		return fieldErr("Engine", "unknown engine kind %d", int(c.Engine))
	case c.NumEngines < 0 || c.NumEngines > MaxEngines:
		return fieldErr("NumEngines", "must be in 0..%d, got %d", MaxEngines, c.NumEngines)
	case c.NumEngines > 2 && c.Split == SplitLocalRemote:
		return fieldErr("Split", "%d engines require the region or round-robin split", c.NumEngines)
	case c.Split == SplitRegion && (c.RegionBytes < c.LineSize || c.RegionBytes&(c.RegionBytes-1) != 0):
		return fieldErr("RegionBytes", "must be a power of two >= LineSize, got %d", c.RegionBytes)
	case c.LivelockLimit <= 0:
		return fieldErr("LivelockLimit", "must be positive, got %d", c.LivelockLimit)
	case c.NetFlitBytes <= 0:
		return fieldErr("NetFlitBytes", "must be positive, got %d", c.NetFlitBytes)
	case c.DirCacheEntries != 0 && !powerOfTwoSets(c.DirCacheEntries, DirCacheAssoc):
		return fieldErr("DirCacheEntries", "must be 0 or a power-of-two number of %d-way sets, got %d",
			DirCacheAssoc, c.DirCacheEntries)
	case c.DirCacheEntries > MaxDirCacheEntries:
		return fieldErr("DirCacheEntries", "must be at most %d, got %d", MaxDirCacheEntries, c.DirCacheEntries)
	case c.NetHeader < 0:
		return fieldErr("NetHeader", "must be non-negative, got %d", c.NetHeader)
	case c.SimShards < 0:
		return fieldErr("SimShards", "must be non-negative, got %d", c.SimShards)
	case c.SimShards > c.Nodes:
		return fieldErr("SimShards", "cannot exceed Nodes (%d), got %d", c.Nodes, c.SimShards)
	case c.SimShards > 1 && c.Topology == TopoMesh2D:
		return fieldErr("SimShards", "mesh topology routes through shared per-hop links and cannot shard; use the crossbar or SimShards <= 1")
	}
	if err := c.validateTimes(); err != nil {
		return err
	}
	if err := c.validateCosts(); err != nil {
		return err
	}
	return c.validateNodeArchs()
}

var timeType = reflect.TypeOf(sim.Time(0))

// validateTimes rejects a negative value in any sim.Time field. Every one
// is a latency, occupancy, back-off or bound that the model adds to the
// current time, and the engine cannot schedule an event before now.
func (c *Config) validateTimes() error {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == timeType && f.Int() < 0 {
			return fieldErr(v.Type().Field(i).Name, "must be non-negative, got %d", f.Int())
		}
	}
	return nil
}

// validateCosts rejects occupancy overrides outside the model's range: no
// negative occupancy, and a positive dispatch cost for every engine kind —
// a zero-cost dispatch would let handlers complete in zero cycles, which
// the dispatch loop treats as a protocol bug.
func (c *Config) validateCosts() error {
	for op := SubOp(0); op < numSubOps; op++ {
		for k := EngineKind(0); k < numEngineKinds; k++ {
			if c.Costs[op][k] < 0 {
				return fieldErr(fmt.Sprintf("Costs[%s][%s]", op.Key(), k),
					"occupancy must be non-negative, got %d", int64(c.Costs[op][k]))
			}
		}
	}
	for k := EngineKind(0); k < numEngineKinds; k++ {
		if c.Costs[OpDispatch][k] <= 0 {
			return fieldErr(fmt.Sprintf("Costs[%s][%s]", OpDispatch.Key(), k),
				"dispatch occupancy must be positive, got %d", int64(c.Costs[OpDispatch][k]))
		}
	}
	return nil
}

// validateNodeArchs checks the heterogeneous-node overrides: the list must
// be empty or exactly node-length, every entry must parse, and a node with
// more than two engines needs a split policy that reaches them all.
func (c *Config) validateNodeArchs() error {
	if len(c.NodeArchs) == 0 {
		return nil
	}
	if len(c.NodeArchs) != c.Nodes {
		return fieldErr("NodeArchs", "has %d entries for %d nodes (must be empty or one entry per node)",
			len(c.NodeArchs), c.Nodes)
	}
	for n, name := range c.NodeArchs {
		if name == "" {
			continue
		}
		_, count, err := ParseArch(name)
		if err == nil && count > MaxEngines {
			err = fmt.Errorf("%d engines exceed the limit of %d", count, MaxEngines)
		}
		if err != nil {
			return fieldErr(fmt.Sprintf("NodeArchs[%d]", n), "%v", err)
		}
		if count > 2 && c.Split == SplitLocalRemote {
			return fieldErr(fmt.Sprintf("NodeArchs[%d]", n),
				"%d engines require the region or round-robin split", count)
		}
	}
	return nil
}

// EngineCount returns the number of protocol engines per controller.
func (c *Config) EngineCount() int {
	if c.NumEngines > 0 {
		return c.NumEngines
	}
	return 1
}

// RegionShift returns log2(RegionBytes) for the region split.
func (c *Config) RegionShift() uint {
	s := uint(0)
	for 1<<s < c.RegionBytes {
		s++
	}
	return s
}

// ArchName returns the paper's name for the controller architecture
// selected by this configuration: HWC, PPC, 2HWC, 2PPC, nXXX for the
// extended engine counts, or a mixed(...) summary for heterogeneous
// machines.
func (c *Config) ArchName() string {
	if c.Heterogeneous() {
		return c.mixedArchName()
	}
	return archName(c.Engine, c.EngineCount())
}

// archName renders the paper-style name for one (kind, count) pair.
func archName(k EngineKind, count int) string {
	if count > 1 {
		return fmt.Sprintf("%d%s", count, k)
	}
	return k.String()
}

// mixedArchName summarizes a heterogeneous machine deterministically:
// per-node architecture names with node counts, ordered by first
// appearance in node order, e.g. "mixed(HWCx4,2PPCx12)".
func (c *Config) mixedArchName() string {
	counts := map[string]int{}
	var order []string
	for n := 0; n < c.Nodes; n++ {
		name := c.NodeArchName(n)
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	parts := make([]string, 0, len(order))
	for _, name := range order {
		parts = append(parts, fmt.Sprintf("%sx%d", name, counts[name]))
	}
	return "mixed(" + strings.Join(parts, ",") + ")"
}

// ParseArch resolves a controller architecture name — an engine kind with
// an optional leading engine count: "HWC", "PPC", "2HWC", "2PPCA", "4PPC".
func ParseArch(name string) (EngineKind, int, error) {
	digits := 0
	for digits < len(name) && name[digits] >= '0' && name[digits] <= '9' {
		digits++
	}
	count := 1
	if digits > 0 {
		n, err := strconv.Atoi(name[:digits])
		if err != nil || n < 1 {
			return 0, 0, fmt.Errorf("config: unknown architecture %q", name)
		}
		count = n
	}
	kind, err := ParseEngineKind(name[digits:])
	if err != nil {
		return 0, 0, fmt.Errorf("config: unknown architecture %q", name)
	}
	return kind, count, nil
}

// WithArch returns a copy of c configured for the named homogeneous
// architecture ("HWC", "PPC", "2HWC", "2PPC", ... with optional engine
// count prefix). Any per-node overrides are cleared.
func (c Config) WithArch(name string) (Config, error) {
	kind, count, err := ParseArch(name)
	if err != nil {
		return c, err
	}
	c.Engine, c.NumEngines = kind, count
	c.NodeArchs = nil
	return c, nil
}

// Heterogeneous reports whether any node carries a per-node architecture
// override.
func (c *Config) Heterogeneous() bool {
	base, baseCount := c.Engine, c.EngineCount()
	for n := range c.NodeArchs {
		if c.NodeArchs[n] == "" {
			continue
		}
		if kind, count := c.nodeArch(n); kind != base || count != baseCount {
			return true
		}
	}
	return false
}

// NodeArchName returns node n's architecture name, honouring NodeArchs.
func (c *Config) NodeArchName(n int) string {
	if n < len(c.NodeArchs) && c.NodeArchs[n] != "" {
		return c.NodeArchs[n]
	}
	return archName(c.Engine, c.EngineCount())
}

// nodeArch resolves node n's engine kind and count. Config must have
// passed Validate; an unparsable override is a programming error here.
func (c *Config) nodeArch(n int) (EngineKind, int) {
	if n < len(c.NodeArchs) && c.NodeArchs[n] != "" {
		kind, count, err := ParseArch(c.NodeArchs[n])
		if err != nil {
			panic(fmt.Sprintf("config: NodeArchs[%d] = %q not validated: %v", n, c.NodeArchs[n], err))
		}
		return kind, count
	}
	return c.Engine, c.EngineCount()
}

// NodeEngineKind returns the protocol-engine implementation of node n's
// controller.
func (c *Config) NodeEngineKind(n int) EngineKind {
	kind, _ := c.nodeArch(n)
	return kind
}

// NodeEngineCount returns the number of protocol engines on node n's
// controller.
func (c *Config) NodeEngineCount(n int) int {
	_, count := c.nodeArch(n)
	return count
}

// EngineCounts returns the per-node engine counts (what stats.NewRun
// sizes its per-controller slices from).
func (c *Config) EngineCounts() []int {
	counts := make([]int, c.Nodes)
	for n := range counts {
		counts[n] = c.NodeEngineCount(n)
	}
	return counts
}

// MaxEngineCount returns the largest engine count of any node's
// controller (the fault generator's engine-index range).
func (c *Config) MaxEngineCount() int {
	max := c.EngineCount()
	for n := range c.NodeArchs {
		if count := c.NodeEngineCount(n); count > max {
			max = count
		}
	}
	return max
}

// Architectures lists the four controller architectures in the paper's
// presentation order.
var Architectures = []string{"HWC", "2HWC", "PPC", "2PPC"}
