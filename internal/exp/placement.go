package exp

import (
	"fmt"

	"ccnuma/internal/config"
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

// placementReq resolves the page-placement study to a request.
func (s *Suite) placementReq(app string, pol config.PlacementPolicy) (runReq, error) {
	cfg := s.machine(app)
	cfg.Placement = pol
	return cellReq(cfg, app, s.baseSize())
}

// Placement runs the placement-policy comparison (defaults to the
// communication-heavy applications whose traffic placement shifts most).
func (s *Suite) Placement(apps ...string) (*PlacementResult, error) {
	if len(apps) == 0 {
		apps = []string{"ocean", "radix", "barnes", "water-nsq"}
	}
	var reqs batch
	for _, app := range apps {
		for _, pol := range placementPolicies {
			reqs.add(s.placementReq(app, pol))
		}
	}
	s.prefetch(reqs)

	res := &PlacementResult{Apps: apps, Normalized: map[string]map[string]float64{}}
	for _, app := range apps {
		res.Normalized[app] = map[string]float64{}
		var base float64
		for _, pol := range placementPolicies {
			req, err := s.placementReq(app, pol)
			if err != nil {
				return nil, err
			}
			r, err := s.run(req)
			if err != nil {
				return nil, fmt.Errorf("placement %s/%s: %w", app, pol, err)
			}
			if pol == config.PlaceRoundRobin {
				base = float64(r.ExecTime)
			}
			res.Normalized[app][pol.String()] = float64(r.ExecTime) / base
		}
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
