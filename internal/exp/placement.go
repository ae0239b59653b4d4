package exp

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// PlacementResult compares page-placement policies (the paper's Section 3.1
// methodology note: round-robin is the default because first-touch-after-
// initialization gave slightly inferior performance for most applications,
// from load imbalance and memory/controller contention under uneven memory
// distribution).
type PlacementResult struct {
	Apps []string
	// Normalized[app][policy] = exec time / round-robin exec time, on HWC.
	Normalized map[string]map[string]float64
}

var placementPolicies = []config.PlacementPolicy{config.PlaceRoundRobin, config.PlaceFirstTouch}

// Placement runs the placement-policy comparison (defaults to the
// communication-heavy applications whose traffic placement shifts most).
func (s *Suite) Placement(apps ...string) (*PlacementResult, error) {
	if len(apps) == 0 {
		apps = []string{"ocean", "radix", "barnes", "water-nsq"}
	}
	res := &PlacementResult{Apps: apps, Normalized: map[string]map[string]float64{}}
	var p plan
	for _, app := range apps {
		res.Normalized[app] = map[string]float64{}
		var base float64
		for _, pol := range placementPolicies {
			v := variant{name: pol.String(), size: workload.SizeBase, quiet: true,
				edit: func(cfg *config.Config) { cfg.Placement = pol }}
			p.add(s.req(app, "HWC", v), func(r *stats.Run) {
				if pol == config.PlaceRoundRobin {
					base = float64(r.ExecTime)
				}
				res.Normalized[app][pol.String()] = float64(r.ExecTime) / base
			})
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the placement comparison.
func (r *PlacementResult) Render() string {
	var rows [][]string
	for _, app := range r.Apps {
		row := []string{AppLabel(app)}
		for _, pol := range placementPolicies {
			row = append(row, fmt.Sprintf("%.3f", r.Normalized[app][pol.String()]))
		}
		rows = append(rows, row)
	}
	return renderTable("Page placement policies on HWC (normalized to round-robin, the paper's default)",
		[]string{"Application", "round-robin", "first-touch"}, rows)
}
