package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// knobFlags registers the named knobs (every knob when none is named) on
// a fresh FlagSet, showing def's values.
func knobFlags(def *Spec, names ...string) *flag.FlagSet {
	if len(names) == 0 {
		for _, k := range knobs {
			names = append(names, k.name)
		}
	}
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	Flags(fs, def, names...)
	return fs
}

// knobOther gives each knob a valid value that differs from knobSpec's,
// and what that value writes into the compact canonical document.
var knobOther = map[string]struct{ value, writes string }{
	"app":         {"fft", `"app":"fft"`},
	"size":        {"small", `"size":"small"`},
	"seed":        {"3", `"seed":3`},
	"arch":        {"2PPC", `"engine":"PPC","numEngines":2`},
	"engines":     {"2", `"numEngines":2`},
	"node-archs":  {"HWC,HWC,PPC,PPC", `"nodeArchs":["HWC","HWC","PPC","PPC"]`},
	"nodes":       {"2", `"nodes":2`},
	"ppn":         {"1", `"procsPerNode":1`},
	"line":        {"64", `"lineSize":64`},
	"netlat":      {"50", `"netLatency":50`},
	"split":       {"round-robin", `"split":"round-robin"`},
	"arb":         {"fifo", `"arbitration":"fifo"`},
	"topo":        {"mesh", `"topology":"mesh2d"`},
	"dircache":    {"0", `"dirCacheEntries":0`},
	"robust":      {"true", `"robust":true`},
	"attribution": {"true", `"attribution":true`},
	"shards":      {"2", "shards=2"},
	"jobs":        {"2", `"jobs":2`},
	"schedules":   {"3", `"schedules":3`},
	"first":       {"2", `"first":2`},
	"events":      {"5", `"events":5`},
	"param":       {"dircache", `"param":"dircache"`},
	"values":      {"32,64", `"values":[32,64]`},
	"archs":       {"HWC,2PPC", `"archs":["HWC","2PPC"]`},
}

// knobSpec is a spec with every section a knob writes.
func knobSpec() *Spec {
	s := Small()
	s.EnsureFaults()
	s.EnsureSweep()
	return s
}

// TestEveryFlagIsAView requires each knob to be a view of its spec field:
// given the default it shows, a flag leaves the spec's canonical bytes
// unchanged (and the shard count, which the canonical form leaves out),
// and another valid value writes that field.
func TestEveryFlagIsAView(t *testing.T) {
	state := func(s *Spec) string {
		b, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, b); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s shards=%d", c.Bytes(), s.Machine.SimShards)
	}
	want := state(knobSpec())
	resolve := func(name string, args ...string) string {
		def := knobSpec()
		fs := knobFlags(def, name)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s, err := FromFlags(fs, def, "", "")
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return state(s)
	}
	for _, k := range knobs {
		other, ok := knobOther[k.name]
		if !ok {
			t.Errorf("-%s: no value in knobOther", k.name)
			continue
		}
		shown := knobFlags(knobSpec(), k.name).Lookup(k.name).DefValue
		if got := resolve(k.name, "-"+k.name+"="+shown); got != want {
			t.Errorf("-%s=%s (its shown default) changed the spec:\n%s", k.name, shown, got)
		}
		if got := resolve(k.name, "-"+k.name+"="+other.value); got == want || !strings.Contains(got, other.writes) {
			t.Errorf("-%s=%s did not write %s:\n%s", k.name, other.value, other.writes, got)
		}
		// A boolean knob may also be given bare, as -robust.
		if other.value == "true" && resolve(k.name, "-"+k.name) != resolve(k.name, "-"+k.name+"=true") {
			t.Errorf("bare -%s differs from -%s=true", k.name, k.name)
		}
	}
	if len(knobOther) != len(knobs) {
		t.Errorf("knobOther has %d entries for %d knobs", len(knobOther), len(knobs))
	}
}

// TestMalformedFlagNamesItself pins that a value the field cannot parse is
// rejected with an error naming its flag.
func TestMalformedFlagNamesItself(t *testing.T) {
	for name, value := range map[string]string{
		"nodes": "four", "netlat": "1.5", "seed": "x", "robust": "maybe",
		"split": "sideways", "topo": "ring", "arch": "3XYZ", "engines": "two",
		"values": "14,x",
	} {
		def := knobSpec()
		fs := knobFlags(def, name)
		if err := fs.Parse([]string{"-" + name + "=" + value}); err != nil {
			t.Fatal(err)
		}
		_, err := FromFlags(fs, def, "", "")
		if err == nil || !strings.Contains(err.Error(), "-"+name+":") {
			t.Errorf("-%s=%s: err = %v, want one naming the flag", name, value, err)
		}
	}
}

// TestArchBeforeEngines pins the name-order rule: -arch, which resets the
// engine layout, applies before -engines and -node-archs wherever they
// stand on the command line, and -engines 0 keeps -arch's count.
func TestArchBeforeEngines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-arch", "2PPC", "-engines", "0"}, "2PPC"},
		{[]string{"-engines", "2", "-arch", "PPC"}, "2PPC"},
		{[]string{"-node-archs", "HWC,PPC,HWC,PPC", "-arch", "2HWC"}, "mixed(HWCx2,PPCx2)"},
	} {
		def := Small()
		fs := knobFlags(def, "arch", "engines", "node-archs")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		s, err := FromFlags(fs, def, "", "")
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := s.Machine.ArchName(); got != tc.want {
			t.Errorf("%v: architecture %s, want %s", tc.args, got, tc.want)
		}
	}
}

// TestCheckOutputs checks the output-path checks commands make before
// simulating: a file in an existing directory (or no path at all) passes,
// a file in a missing directory or an output directory that is missing or
// a file fails with an error naming the path, and nothing is created.
func TestCheckOutputs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "run.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	if err := CheckOutputFiles("", file, filepath.Join(dir, "new.json")); err != nil {
		t.Fatalf("files in an existing directory: %v", err)
	}
	if err := CheckOutputDir(""); err != nil {
		t.Fatalf("no output directory: %v", err)
	}
	if err := CheckOutputDir(dir); err != nil {
		t.Fatalf("existing directory: %v", err)
	}
	for _, c := range []struct {
		path string
		err  error
	}{
		{filepath.Join(missing, "run.json"), CheckOutputFiles(file, filepath.Join(missing, "run.json"))},
		{missing, CheckOutputDir(missing)},
		{file, CheckOutputDir(file)},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.path) {
			t.Errorf("check of %s: error %v, want one naming the path", c.path, c.err)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a check created %s", missing)
	}
}
