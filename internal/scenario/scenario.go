// Package scenario defines the declarative ccnuma-scenario/v1 spec: one
// versioned JSON document that names everything a run needs — machine
// geometry and per-node engine configuration, Table 1/2 timing overrides,
// workload and problem size, fault schedule, sweep axes, seeds, and job
// counts. Every simulation command (ccsim, ccsweep, ccchaos, cctrace) is
// a thin wrapper over the same loading pipeline: start from Default(),
// overlay a -spec file if given, then overlay the command's flags.
//
// Specs are canonicalized before use: loading resolves absent fields to
// their defaults, validation rejects inconsistent machines with errors
// naming the offending field, and Canonical() serializes the resolved spec
// with a fixed field order. The Fingerprint() of those canonical bytes is
// stable across JSON field ordering and whitespace, so two specs hash
// equal exactly when they describe the same experiment.
//
// A spec expands into cells (Spec.Cells): one normalized machine and
// workload per simulation, the unit every per-run tool works in. Run
// artifacts embed their cell's canonical document plus its fingerprint
// (Cell.Artifact), which is what makes `ccsim -replay artifact.json`
// reproduce any published run.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"ccnuma/internal/config"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// Schema is the versioned identifier every scenario document must carry.
const Schema = "ccnuma-scenario/v1"

// DefaultSimLimit is the watchdog horizon the commands have always run
// under (config.Base leaves SimLimit at a lower library default).
const DefaultSimLimit = 50_000_000_000

// Spec is one complete experiment description.
type Spec struct {
	SchemaName string `json:"schema"`
	// Name is a free-form label for humans; it participates in the
	// spec's canonical form (two specs differing only in Name hash
	// differently) but not in its cells, so run fingerprints ignore it.
	Name string `json:"name,omitempty"`

	// Machine is the full architectural configuration, including the
	// heterogeneous per-node overrides (machine.nodeArchs) and the Table 2
	// occupancy table (machine.costs).
	Machine config.Config `json:"machine"`

	Workload Workload `json:"workload"`

	// Faults, when present, describes a chaos campaign (ccchaos).
	Faults *FaultPlan `json:"faults,omitempty"`

	// Sweep, when present, describes a parameter sweep grid (ccsweep).
	Sweep *SweepPlan `json:"sweep,omitempty"`

	// Jobs bounds concurrency for commands that fan out independent
	// simulations (0 = GOMAXPROCS). Output is identical for any value.
	Jobs int `json:"jobs,omitempty"`
}

// Workload names the kernel and problem size to run.
type Workload struct {
	App string `json:"app"`
	// Size is the problem-size class: test, small, base, or large.
	Size string `json:"size"`
	// Seed selects the kernel's input (0 = the fixed default input).
	Seed int64 `json:"seed,omitempty"`
}

// FaultPlan describes a seeded fault-injection campaign.
type FaultPlan struct {
	// Schedules is the number of fault schedules per application.
	Schedules int `json:"schedules"`
	// First is the index of the first schedule (repro: First=N,
	// Schedules=1 replays exactly schedule N).
	First int `json:"first,omitempty"`
	// Events is the number of faults per schedule (0 = scale with the
	// machine: 2 + nodes).
	Events int `json:"events,omitempty"`
	// BaseSeed seeds the generator; schedule s runs under BaseSeed+s.
	BaseSeed int64 `json:"baseSeed"`
}

// SweepPlan describes a parameter sweep grid, value-major: the first
// architecture of each value group is that group's penalty baseline.
type SweepPlan struct {
	Param  string   `json:"param"`
	Values []int    `json:"values"`
	Archs  []string `json:"archs"`
}

// SweepParams lists the parameters ApplySweepValue understands.
var SweepParams = []string{"netlat", "line", "ppn", "engines", "dircache", "banks", "hoplat"}

// Default returns the baseline scenario: the paper's base machine with the
// commands' usual watchdog horizon, running ocean at the base size.
func Default() *Spec {
	m := config.Base()
	m.SimLimit = DefaultSimLimit
	return &Spec{
		SchemaName: Schema,
		Machine:    m,
		Workload:   Workload{App: "ocean", Size: "base"},
	}
}

// EnsureFaults returns the spec's fault plan, installing the ccchaos
// defaults first when the loaded document had no faults section.
func (s *Spec) EnsureFaults() *FaultPlan {
	if s.Faults == nil {
		s.Faults = &FaultPlan{Schedules: 25, BaseSeed: 1}
	}
	return s.Faults
}

// EnsureSweep returns the spec's sweep plan, installing the ccsweep
// defaults first when the loaded document had no sweep section.
func (s *Spec) EnsureSweep() *SweepPlan {
	if s.Sweep == nil {
		s.Sweep = &SweepPlan{
			Param:  "netlat",
			Values: []int{14, 50, 100, 200},
			Archs:  []string{"HWC", "PPC"},
		}
	}
	return s.Sweep
}

// CheckSections rejects a section of the spec that command cmd does not
// run, naming the command that does: a sweep runs under ccsweep and a
// fault campaign under ccchaos. No command then drops part of a document
// without a word.
func (s *Spec) CheckSections(cmd string) error {
	for _, sec := range []struct {
		present     bool
		name, owner string
	}{
		{s.Sweep != nil, "sweep", "ccsweep"},
		{s.Faults != nil, "faults", "ccchaos"},
	} {
		if sec.present && cmd != sec.owner {
			return fmt.Errorf("scenario: %s does not run a %s section (%s does)", cmd, sec.name, sec.owner)
		}
	}
	return nil
}

// Load reads and resolves a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := LoadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// LoadBytes resolves a scenario document against the defaults: fields
// absent from the JSON keep their Default() values, so a spec only states
// what it changes. Unknown fields are rejected, as is any schema other
// than ccnuma-scenario/v1.
func LoadBytes(data []byte) (*Spec, error) {
	var probe struct {
		Schema *string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Schema == nil {
		return nil, fmt.Errorf("missing schema field (want %q)", Schema)
	}
	if *probe.Schema != Schema {
		return nil, fmt.Errorf("schema %q, want %q", *probe.Schema, Schema)
	}
	s := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadArtifact extracts and resolves the canonical scenario embedded in a
// ccnuma-run/v1 artifact, the entry point of `ccsim -replay`.
func LoadArtifact(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var probe struct {
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if len(probe.Scenario) == 0 {
		return nil, fmt.Errorf("scenario: %s: artifact embeds no scenario (pre-scenario artifact?)", path)
	}
	s, err := LoadBytes(probe.Scenario)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: embedded scenario: %w", path, err)
	}
	return s, nil
}

// Validate checks the resolved spec end to end: the machine configuration,
// the workload name and size, and the fault/sweep sections when present.
func (s *Spec) Validate() error {
	if s.SchemaName != Schema {
		return fmt.Errorf("scenario: schema %q, want %q", s.SchemaName, Schema)
	}
	if err := s.Machine.Validate(); err != nil {
		return err
	}
	if s.Workload.App != "all" && !knownApp(s.Workload.App) {
		return fmt.Errorf("scenario: workload.app: unknown application %q (have %v)", s.Workload.App, workload.Names())
	}
	if _, err := ParseSize(s.Workload.Size); err != nil {
		return fmt.Errorf("scenario: workload.size: %w", err)
	}
	if f := s.Faults; f != nil {
		if f.Schedules < 0 {
			return fmt.Errorf("scenario: faults.schedules: must be >= 0, got %d", f.Schedules)
		}
		if f.First < 0 {
			return fmt.Errorf("scenario: faults.first: must be >= 0, got %d", f.First)
		}
		if f.Events < 0 {
			return fmt.Errorf("scenario: faults.events: must be >= 0, got %d", f.Events)
		}
	}
	if sw := s.Sweep; sw != nil {
		if !knownSweepParam(sw.Param) {
			return fmt.Errorf("scenario: sweep.param: unknown parameter %q (have %v)", sw.Param, SweepParams)
		}
		if len(sw.Values) == 0 {
			return fmt.Errorf("scenario: sweep.values: must name at least one value")
		}
		if len(sw.Archs) == 0 {
			return fmt.Errorf("scenario: sweep.archs: must name at least one architecture")
		}
		if n := len(sw.Values) * len(sw.Archs); n > MaxSweepCells {
			return fmt.Errorf("scenario: sweep: %d values x %d archs = %d cells exceeds the limit of %d",
				len(sw.Values), len(sw.Archs), n, MaxSweepCells)
		}
		for _, a := range sw.Archs {
			if _, _, err := config.ParseArch(a); err != nil {
				return fmt.Errorf("scenario: sweep.archs: %w", err)
			}
		}
	}
	if s.Jobs < 0 {
		return fmt.Errorf("scenario: jobs: must be >= 0, got %d", s.Jobs)
	}
	return nil
}

// Canonical validates the spec and serializes it in canonical form: fixed
// field order, two-space indentation, trailing newline. Canonical bytes
// are a fixpoint of LoadBytes, and they are what artifacts embed and what
// Fingerprint hashes.
func (s *Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// SimShards tunes the host, not the experiment: results are pinned
	// byte-identical for every shard count, so the canonical form — and
	// with it the fingerprint, the scenario an artifact embeds, and what
	// -replay reproduces — excludes it. (Machine is a value field, so the
	// shallow copy cannot disturb the caller's spec.)
	c := *s
	c.Machine.SimShards = 0
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Fingerprint returns the stable identity of the spec: the first 16 hex
// digits of the SHA-256 of its canonical bytes. Two documents that resolve
// to the same experiment fingerprint identically regardless of field
// order, whitespace, or which defaults they spelled out.
func (s *Spec) Fingerprint() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16], nil
}

// Size resolves the workload size class.
func (s *Spec) Size() (workload.SizeClass, error) {
	return ParseSize(s.Workload.Size)
}

// ParseSize resolves a problem-size name.
func ParseSize(name string) (workload.SizeClass, error) {
	switch name {
	case "test":
		return workload.SizeTest, nil
	case "small":
		return workload.SizeSmall, nil
	case "base":
		return workload.SizeBase, nil
	case "large":
		return workload.SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q (want test, small, base, or large)", name)
}

// ApplySweepValue sets one swept parameter on the configuration; it is the
// single definition of what ccsweep's -param axis means.
func ApplySweepValue(cfg *config.Config, param string, v int) error {
	switch param {
	case "netlat":
		cfg.NetLatency = sim.Time(v)
	case "line":
		cfg.LineSize = v
	case "ppn":
		total := cfg.Nodes * cfg.ProcsPerNode
		if v <= 0 || total%v != 0 {
			return fmt.Errorf("ppn %d does not divide %d processors", v, total)
		}
		cfg.Nodes, cfg.ProcsPerNode = total/v, v
	case "engines":
		cfg.NumEngines = v
		if v > 2 {
			cfg.Split = config.SplitRegion
		}
	case "dircache":
		cfg.DirCacheEntries = v
	case "banks":
		cfg.MemBanks = v
	case "hoplat":
		cfg.Topology = config.TopoMesh2D
		cfg.NetHopLatency = sim.Time(v)
	default:
		return fmt.Errorf("unknown parameter %q (have %v)", param, SweepParams)
	}
	return nil
}

func knownApp(name string) bool {
	for _, n := range workload.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func knownSweepParam(name string) bool {
	for _, p := range SweepParams {
		if p == name {
			return true
		}
	}
	return false
}
