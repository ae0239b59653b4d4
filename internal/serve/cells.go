package serve

import (
	"bytes"
	"fmt"

	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
)

// Cell is one unit of serveable work: a scenario cell, content-addressed
// by its fingerprint, plus its admission charge. A plain scenario
// submission is one cell; a sweep expands value-major into one cell per
// (value, arch) grid point, exactly like ccsweep.
type Cell struct {
	*scenario.Cell
	// charged records that this cell holds one unit of the server's
	// admission queue, released when the cell finishes or is abandoned.
	charged bool
}

// ExpandCells resolves a submitted scenario into its cells. Fault
// campaigns are not serveable (their artifacts aggregate a whole seeded
// campaign, not one memoizable run) and are rejected at validation.
func ExpandCells(spec *scenario.Spec) ([]*Cell, error) {
	if spec.Faults != nil {
		return nil, fmt.Errorf("serve: fault campaigns are not serveable; submit them to ccchaos")
	}
	sc, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	cells := make([]*Cell, len(sc))
	for i, c := range sc {
		cells[i] = &Cell{Cell: c}
	}
	return cells, nil
}

// computeCell runs one cell's simulation and serializes its ccnuma-run/v1
// artifact, attaching the sampler (if any) to the machine. The artifact
// embeds the cell's canonical scenario, so `ccsim -replay` on served bytes
// reproduces the run; it never includes host timing, so the bytes are
// deterministic — the property the kill-torture harness pins by comparing
// resumed sweeps against uninterrupted ones. A panic anywhere in the
// simulation (the protocol's fail-stop included) is captured and
// classified, never propagated into the serving loop.
func computeCell(c *Cell, sampler *obs.Sampler) (payload []byte, fail *obs.FailureDoc) {
	defer func() {
		if p := recover(); p != nil {
			payload, fail = nil, machine.ClassifyFailure(p)
		}
	}()
	r, err := c.Run(func(m *machine.Machine) {
		if sampler != nil {
			m.AttachSampler(sampler)
		}
	})
	if err != nil {
		return nil, machine.ClassifyFailure(err)
	}
	var buf bytes.Buffer
	if err := c.Artifact("ccserved", r).WriteJSON(&buf); err != nil {
		return nil, machine.ClassifyFailure(err)
	}
	return buf.Bytes(), nil
}
