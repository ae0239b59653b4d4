package exp

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// ExtensionResult holds the Section 5 extension studies: scaling the number
// of protocol engines ("more protocol engines for different regions of
// memory") and adding incremental custom hardware to a protocol processor
// (the PPCA engine).
type ExtensionResult struct {
	Apps []string
	// EngineScaling[app][n] = exec time with n region-split PPC engines,
	// normalized by the app's 1-engine PPC run.
	EngineScaling map[string]map[int]float64
	// KindTimes[app][kind] = exec time normalized by the app's HWC run.
	KindTimes map[string]map[string]float64
}

// engineCounts for the scaling study.
var engineCounts = []int{1, 2, 4}

// Extensions runs both Section 5 studies on the given applications
// (defaults to ocean and radix, the highest-penalty pair).
func (s *Suite) Extensions(apps ...string) (*ExtensionResult, error) {
	if len(apps) == 0 {
		apps = []string{"ocean", "radix"}
	}
	res := &ExtensionResult{
		Apps:          apps,
		EngineScaling: map[string]map[int]float64{},
		KindTimes:     map[string]map[string]float64{},
	}
	var p plan
	for _, app := range apps {
		res.EngineScaling[app] = map[int]float64{}
		var one *stats.Run // the 1-engine run
		for _, n := range engineCounts {
			v := variant{name: fmt.Sprintf("engines%d", n), size: workload.SizeBase, quiet: true,
				edit: func(cfg *config.Config) {
					cfg.NumEngines = n
					if n > 1 {
						cfg.Split = config.SplitRegion
					}
				}}
			p.add(s.req(app, "PPC", v), func(r *stats.Run) {
				if n == 1 {
					one = r
				}
				res.EngineScaling[app][n] = float64(r.ExecTime) / float64(one.ExecTime)
			})
		}

		res.KindTimes[app] = map[string]float64{}
		var hwc *stats.Run
		for _, arch := range []string{"HWC", "PPCA", "PPC"} {
			p.add(s.req(app, arch, base()), func(r *stats.Run) {
				if arch == "HWC" {
					hwc = r
				}
				res.KindTimes[app][arch] = float64(r.ExecTime) / float64(hwc.ExecTime)
			})
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the extension studies.
func (r *ExtensionResult) Render() string {
	var rows [][]string
	for _, app := range r.Apps {
		for _, n := range engineCounts {
			rows = append(rows, []string{
				AppLabel(app),
				fmt.Sprintf("%d x PPC (region split)", n),
				fmt.Sprintf("%.3f", r.EngineScaling[app][n]),
			})
		}
		for _, arch := range []string{"HWC", "PPCA", "PPC"} {
			rows = append(rows, []string{
				AppLabel(app),
				arch + " (1 engine)",
				fmt.Sprintf("%.3f", r.KindTimes[app][arch]),
			})
		}
	}
	return renderTable("Extensions (paper section 5): engine scaling (normalized to 1xPPC) and accelerated protocol processor (normalized to HWC)",
		[]string{"Application", "Configuration", "Normalized time"}, rows)
}
