// Flags: every scenario flag is a view of one spec field. A command
// states its defaults once, as a spec; Flags registers the knobs it takes,
// each showing that spec's value, and FromFlags starts from the -spec or
// -replay document (or that spec) and applies only the flags the user set.
// So `-spec file.json -netlat 200` means "that experiment, but with a
// 200-cycle network", and a flag never overrides a document at its
// default.
package scenario

import (
	"encoding"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// knob is one scenario flag: its name, its help text, and the spec field
// it writes.
type knob struct {
	name, usage string
	// field returns a pointer to the field in s; the flag's value parses
	// as the JSON document parses the field.
	field func(s *Spec) any
	// apply, when set, writes the value instead (field then only shows
	// the default): the flags whose meaning is not one field's value.
	apply func(s *Spec, value string) error
}

// knobs is every scenario flag a command can take.
var knobs = []knob{
	{name: "app", usage: fmt.Sprintf("application: %s (ccchaos also takes \"all\", the paper's eight)", strings.Join(workload.Names(), ", ")),
		field: func(s *Spec) any { return &s.Workload.App }},
	{name: "size", usage: "problem size: test, small, base, large",
		field: func(s *Spec) any { return &s.Workload.Size }},
	{name: "seed", usage: "workload input seed (0 = the kernel's fixed default input)",
		field: func(s *Spec) any { return &s.Workload.Seed }},
	{name: "arch", usage: "controller architecture: HWC, PPC, PPCA, 2HWC, 2PPC, 2PPCA",
		field: func(s *Spec) any { return s.Machine.ArchName() },
		apply: func(s *Spec, value string) (err error) {
			s.Machine, err = s.Machine.WithArch(value)
			return err
		}},
	{name: "engines", usage: "protocol engines per controller, overriding -arch's count (0 keeps it; >2 requires -split region)",
		field: func(s *Spec) any { return &s.Machine.NumEngines },
		apply: func(s *Spec, value string) error {
			n, err := strconv.Atoi(value)
			if n != 0 {
				s.Machine.NumEngines = n
			}
			return err
		}},
	{name: "node-archs", usage: "comma-separated per-node architectures (e.g. HWC,HWC,PPC,PPC); empty = homogeneous -arch",
		field: func(s *Spec) any { return &s.Machine.NodeArchs }},
	{name: "nodes", usage: "SMP nodes",
		field: func(s *Spec) any { return &s.Machine.Nodes }},
	{name: "ppn", usage: "processors per node",
		field: func(s *Spec) any { return &s.Machine.ProcsPerNode }},
	{name: "line", usage: "cache line size in bytes",
		field: func(s *Spec) any { return &s.Machine.LineSize }},
	{name: "netlat", usage: "network point-to-point latency in CPU cycles",
		field: func(s *Spec) any { return &s.Machine.NetLatency }},
	{name: "split", usage: "engine split policy: local-remote, round-robin, region, or dynamic",
		field: func(s *Spec) any { return &s.Machine.Split }},
	{name: "arb", usage: "dispatch arbitration: paper or fifo",
		field: func(s *Spec) any { return &s.Machine.Arbitration }},
	{name: "topo", usage: "interconnect topology: crossbar or mesh",
		field: func(s *Spec) any { return &s.Machine.Topology }},
	{name: "dircache", usage: "directory cache entries (0 disables)",
		field: func(s *Spec) any { return &s.Machine.DirCacheEntries }},
	{name: "robust", usage: "enable the recovery layer: finite queues, NACK/retry, request timeouts, reliable link layer",
		field: func(s *Spec) any { return &s.Machine.Robust }},
	{name: "attribution", usage: "enable per-transaction span tracing and the miss-latency attribution",
		field: func(s *Spec) any { return &s.Machine.Attribution }},
	{name: "shards", usage: "event-engine shards running each simulation in parallel (0 or 1 = serial; results are identical for any value)",
		field: func(s *Spec) any { return &s.Machine.SimShards }},
	{name: "jobs", usage: "simulations to run concurrently (0 = GOMAXPROCS; 1 = serial; output is identical for any value)",
		field: func(s *Spec) any { return &s.Jobs }},
	{name: "schedules", usage: "fault schedules per application",
		field: func(s *Spec) any { return &s.EnsureFaults().Schedules }},
	{name: "first", usage: "index of the first schedule (repro: -first N -schedules 1 replays exactly schedule N)",
		field: func(s *Spec) any { return &s.EnsureFaults().First }},
	{name: "events", usage: "faults per schedule (0 = scale with the machine: 2 + nodes)",
		field: func(s *Spec) any { return &s.EnsureFaults().Events }},
	{name: "param", usage: fmt.Sprintf("swept parameter: %s (hoplat switches to the mesh; ppn keeps the processor count)", strings.Join(SweepParams, ", ")),
		field: func(s *Spec) any { return &s.EnsureSweep().Param }},
	{name: "values", usage: "comma-separated values of the swept parameter",
		field: func(s *Spec) any { return &s.EnsureSweep().Values }},
	{name: "archs", usage: "comma-separated architectures (the first is each value's penalty baseline)",
		field: func(s *Spec) any { return &s.EnsureSweep().Archs }},
}

// knobValue is a knob registered on a FlagSet: the text it shows (def's
// value until the user sets it), which FromFlags applies.
type knobValue struct {
	k      *knob
	text   string
	isBool bool // a boolean knob may be given bare (-robust)
}

func (v *knobValue) String() string     { return v.text }
func (v *knobValue) Set(s string) error { v.text = s; return nil }
func (v *knobValue) IsBoolFlag() bool   { return v.isBool }

// Flags registers the named knobs on fs, each showing def's value as its
// default. A fault or sweep knob installs def's default section first,
// as setting it would.
func Flags(fs *flag.FlagSet, def *Spec, names ...string) {
	for _, name := range names {
		k := lookupKnob(name)
		p := k.field(def)
		_, isBool := p.(*bool)
		fs.Var(&knobValue{k: k, text: show(p), isBool: isBool}, name, k.usage)
	}
}

func lookupKnob(name string) *knob {
	for i := range knobs {
		if knobs[i].name == name {
			return &knobs[i]
		}
	}
	panic(fmt.Sprintf("scenario: no knob -%s", name))
}

// FromFlags resolves a command's scenario. It starts from the -spec
// document (specPath), the scenario embedded in the -replay artifact
// (replayPath), or def itself when neither is given, and then applies
// only the knobs the user set on fs, in name order: -arch, which resets
// the engine layout, comes before -engines and -node-archs. Flags that
// are not knobs (output paths, budgets) are left to the command.
func FromFlags(fs *flag.FlagSet, def *Spec, specPath, replayPath string) (*Spec, error) {
	s := def
	var err error
	switch {
	case specPath != "" && replayPath != "":
		return nil, fmt.Errorf("scenario: -spec and -replay are mutually exclusive")
	case replayPath != "":
		s, err = LoadArtifact(replayPath)
	case specPath != "":
		s, err = Load(specPath)
	}
	if err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		v, ok := f.Value.(*knobValue)
		if !ok || err != nil {
			return
		}
		if v.k.apply != nil {
			err = v.k.apply(s, v.text)
		} else {
			err = parse(v.k.field(s), v.text)
		}
		if err != nil {
			err = fmt.Errorf("scenario: -%s: %w", f.Name, err)
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// parse writes a flag value into the field p points at: config enums
// through their UnmarshalText, numbers and booleans through strconv, and
// lists comma-separated.
func parse(p any, value string) error {
	var err error
	switch p := p.(type) {
	case encoding.TextUnmarshaler:
		return p.UnmarshalText([]byte(value))
	case *string:
		*p = value
	case *bool:
		*p, err = strconv.ParseBool(value)
	case *int:
		*p, err = strconv.Atoi(value)
	case *int64:
		*p, err = strconv.ParseInt(value, 10, 64)
	case *sim.Time:
		var v int64
		v, err = strconv.ParseInt(value, 10, 64)
		*p = sim.Time(v)
	case *[]string:
		*p = splitList(value)
	case *[]int:
		*p = nil
		for _, f := range splitList(value) {
			v, e := strconv.Atoi(f)
			if e != nil {
				return e
			}
			*p = append(*p, v)
		}
	default:
		panic(fmt.Sprintf("scenario: knob field of type %T", p))
	}
	return err
}

// show renders a field's value as its flag would be written.
func show(p any) string {
	switch p := p.(type) {
	case encoding.TextMarshaler:
		b, err := p.MarshalText()
		if err != nil {
			return err.Error()
		}
		return string(b)
	case string:
		return p
	case *string:
		return *p
	case *bool:
		return strconv.FormatBool(*p)
	case *int:
		return strconv.Itoa(*p)
	case *int64:
		return strconv.FormatInt(*p, 10)
	case *sim.Time:
		return strconv.FormatInt(int64(*p), 10)
	case *[]string:
		return strings.Join(*p, ",")
	case *[]int:
		parts := make([]string, len(*p))
		for i, v := range *p {
			parts[i] = strconv.Itoa(v)
		}
		return strings.Join(parts, ",")
	}
	panic(fmt.Sprintf("scenario: knob field of type %T", p))
}

// splitList splits a comma-separated flag value, trimming blanks; an empty
// value yields nil so `-node-archs ""` clears the override.
func splitList(value string) []string {
	if strings.TrimSpace(value) == "" {
		return nil
	}
	parts := strings.Split(value, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}
