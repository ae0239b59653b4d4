// Flag overlay: the bridge between the commands' historical flag sets and
// the scenario document. Every command resolves its effective scenario the
// same way — Default(), then the -spec/-replay document if given, then its
// flags — so `-spec file.json -netlat 200` means "that experiment, but
// with a 200-cycle network", and a command invoked with no spec behaves
// exactly as it always has.
package scenario

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"ccnuma/internal/config"
	"ccnuma/internal/sim"
)

// FlagFunc applies one flag's value to the spec; commands register these
// as overrides for flags whose meaning differs from the shared mapping
// (e.g. ccchaos's -seed seeds the fault schedules, not the workload).
type FlagFunc func(*Spec, string) error

// FromFlags resolves a command's effective scenario. Exactly one of
// specPath/replayPath may be non-empty: specPath loads a scenario file,
// replayPath extracts the scenario embedded in a run artifact. With
// neither, the spec starts from Default() and every flag applies at its
// default or explicit value, reproducing the commands' historical
// behavior; with a spec, only flags the user explicitly set override it.
func FromFlags(fs *flag.FlagSet, specPath, replayPath string, overrides map[string]FlagFunc) (*Spec, error) {
	if specPath != "" && replayPath != "" {
		return nil, fmt.Errorf("scenario: -spec and -replay are mutually exclusive")
	}
	var s *Spec
	var err error
	switch {
	case replayPath != "":
		s, err = LoadArtifact(replayPath)
	case specPath != "":
		s, err = Load(specPath)
	default:
		s = Default()
	}
	if err != nil {
		return nil, err
	}
	if err := Overlay(s, fs, specPath != "" || replayPath != "", overrides); err != nil {
		return nil, err
	}
	return s, nil
}

// Overlay applies a parsed flag set to the spec. With onlySet false it
// visits every flag (defaults included) in flag-name order; with onlySet
// true it visits only flags the user explicitly passed. Flags with no
// scenario meaning (output paths, verbosity, budgets) are ignored.
func Overlay(s *Spec, fs *flag.FlagSet, onlySet bool, overrides map[string]FlagFunc) error {
	var err error
	visit := func(f *flag.Flag) {
		if err != nil {
			return
		}
		if fn, ok := overrides[f.Name]; ok {
			if e := fn(s, f.Value.String()); e != nil {
				err = fmt.Errorf("scenario: -%s: %w", f.Name, e)
			}
			return
		}
		if _, e := ApplyFlag(s, f.Name, f.Value.String()); e != nil {
			err = fmt.Errorf("scenario: -%s: %w", f.Name, e)
		}
	}
	if onlySet {
		fs.Visit(visit)
	} else {
		fs.VisitAll(visit)
	}
	return err
}

// ApplyFlag maps one shared flag onto the spec, reporting whether the name
// has a scenario meaning. Visit order matters for -arch, which resets the
// engine layout, and flag.Visit* iterates alphabetically, which happens to
// be the order the commands always applied them in: -arch precedes
// -engines and -node-archs.
func ApplyFlag(s *Spec, name, value string) (bool, error) {
	switch name {
	case "app":
		s.Workload.App = value
	case "size":
		s.Workload.Size = value
	case "seed":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return true, err
		}
		s.Workload.Seed = v
	case "arch":
		m, err := s.Machine.WithArch(value)
		if err != nil {
			return true, err
		}
		s.Machine = m
	case "engines":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		// 0 (the flag default) keeps the count -arch chose, which the
		// alphabetical overlay applied first.
		if v != 0 {
			s.Machine.NumEngines = v
		}
	case "node-archs":
		s.Machine.NodeArchs = splitList(value)
	case "nodes":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Machine.Nodes = v
	case "ppn", "procs":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Machine.ProcsPerNode = v
	case "line":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Machine.LineSize = v
	case "netlat":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return true, err
		}
		s.Machine.NetLatency = sim.Time(v)
	case "split":
		p, err := config.ParseSplit(value)
		if err != nil {
			return true, err
		}
		s.Machine.Split = p
	case "arb":
		p, err := config.ParseArb(value)
		if err != nil {
			return true, err
		}
		s.Machine.Arbitration = p
	case "topo":
		t, err := config.ParseTopology(value)
		if err != nil {
			return true, err
		}
		s.Machine.Topology = t
	case "dircache":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Machine.DirCacheEntries = v
	case "robust":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return true, err
		}
		s.Machine.Robust = v
	case "attribution":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return true, err
		}
		s.Machine.Attribution = v
	case "jobs":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Jobs = v
	case "shards":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.Machine.SimShards = v
	case "schedules":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.EnsureFaults().Schedules = v
	case "first":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.EnsureFaults().First = v
	case "events":
		v, err := strconv.Atoi(value)
		if err != nil {
			return true, err
		}
		s.EnsureFaults().Events = v
	case "param":
		s.EnsureSweep().Param = value
	case "values":
		vals, err := parseIntList(value)
		if err != nil {
			return true, err
		}
		s.EnsureSweep().Values = vals
	case "archs":
		s.EnsureSweep().Archs = splitList(value)
	default:
		return false, nil
	}
	return true, nil
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

func parseIntList(value string) ([]int, error) {
	parts := splitList(value)
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
