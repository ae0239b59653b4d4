package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// pinSeed is the seed whose results testdata/pins.json records.
const pinSeed = 1

// pin is one simulation's committed result at pinSeed.
type pin struct {
	Exec   int64  `json:"exec"`
	Digest string `json:"digest"`
}

// pinFile maps workload name -> cell name -> pin.
type pinFile map[string]map[string]pin

//go:embed testdata/pins.json
var committedPins []byte

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(committedPins, &p); err != nil {
		return nil, fmt.Errorf("testdata/pins.json: %w", err)
	}
	return p, nil
}

// checker applies the cross-cell correctness checks to each pass: every
// cell at pinSeed must match its pin, every sharded cell must equal its
// serial twin, and every pass must reproduce the first pass exactly.
type checker struct {
	pins  map[string]pin // nil unless the run is at pinSeed
	first map[string]string
}

func newChecker(workload string, seed int64) (*checker, error) {
	ch := &checker{}
	if seed == pinSeed {
		pins, err := loadPins()
		if err != nil {
			return nil, err
		}
		ch.pins = pins[workload]
		if ch.pins == nil {
			ch.pins = map[string]pin{}
		}
	}
	return ch, nil
}

// check fails every cell of the pass that disagrees with a pin, its twin or
// the first pass.
func (ch *checker) check(cells []cell) {
	byName := make(map[string]*cell, len(cells))
	for i := range cells {
		byName[cells[i].name] = &cells[i]
	}
	firstPass := ch.first == nil
	if firstPass {
		ch.first = map[string]string{}
	}
	for i := range cells {
		c := &cells[i]
		if c.err != nil {
			continue
		}
		if ch.pins != nil {
			p, ok := ch.pins[c.name]
			switch {
			case !ok:
				c.err = fmt.Errorf("no pin for seed %d", pinSeed)
			case p.Exec != int64(c.exec) || p.Digest != c.digest:
				c.err = fmt.Errorf("result differs from its pin: exec %d digest %.16s, pinned exec %d digest %.16s",
					c.exec, c.digest, p.Exec, p.Digest)
			}
		}
		if t := byName[c.twin]; c.err == nil && c.twin != "" && (t == nil || t.err != nil || t.digest != c.digest) {
			c.err = fmt.Errorf("sharded result differs from its serial twin %s", c.twin)
		}
		if firstPass {
			ch.first[c.name] = c.digest
		} else if d, ok := ch.first[c.name]; c.err == nil && ok && d != c.digest {
			c.err = errors.New("result differs from the same simulation in the first pass")
		}
	}
}

// writePins records the pass's results as workload's pins in the file at
// path, keeping the other workloads' entries.
func writePins(path, workload string, cells []cell) error {
	all := pinFile{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	pins := map[string]pin{}
	for _, c := range cells {
		if c.err != nil {
			return fmt.Errorf("%s failed, not pinning: %w", c.name, c.err)
		}
		pins[c.name] = pin{Exec: int64(c.exec), Digest: c.digest}
	}
	all[workload] = pins
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// passDigest combines a pass's cell digests, in cell-name order, so a run at
// any seed can print one line that identifies all its results.
func passDigest(cells []cell) string {
	names := make([]string, 0, len(cells))
	byName := map[string]string{}
	for _, c := range cells {
		names = append(names, c.name)
		byName[c.name] = c.digest
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %s\n", n, byName[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
