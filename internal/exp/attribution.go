// Latency attribution: the causal decomposition of miss latency into the
// pipeline stages a transaction crosses (span tracing, DESIGN §13). This is
// the evaluation the paper's occupancy argument implies but never tabulates:
// for each kernel x architecture, where do the miss cycles actually go, and
// what share is queueing behind a busy protocol engine?
package exp

import (
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/obs"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// AttributionRow is one kernel x architecture attributed run.
type AttributionRow struct {
	App, Arch string
	Run       *stats.Run
}

// Attribution runs every paper application on every base architecture with
// span tracing enabled and returns the per-run latency decompositions.
// Attributed runs are cells of their own, so they never alias the plain
// Figure 6 runs.
func (s *Suite) Attribution() ([]AttributionRow, error) {
	attr := variant{name: "attr", edit: func(cfg *config.Config) { cfg.Attribution = true }}
	var rows []AttributionRow
	var p plan
	for _, app := range workload.PaperApps {
		for _, arch := range allArchs {
			p.add(s.req(app, arch, attr), func(r *stats.Run) {
				rows = append(rows, AttributionRow{App: app, Arch: arch, Run: r})
			})
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if row.Run.Attribution == nil {
			return nil, fmt.Errorf("%s/%s: attributed run carried no attribution stats", row.App, row.Arch)
		}
	}
	return rows, nil
}

// RenderAttribution formats the attribution rows: end-to-end miss-latency
// distribution plus the share of attributed cycles each stage consumed. The
// cc-queue column is the paper's occupancy bottleneck made visible — cycles
// a transaction spent waiting for a busy protocol engine to dispatch it.
func RenderAttribution(rows []AttributionRow) string {
	header := []string{"App", "Arch", "misses", "mean", "p50", "p95", "p99"}
	for i := 0; i < obs.NumStages; i++ {
		header = append(header, obs.StageName(i)+"%")
	}
	var cells [][]string
	for _, row := range rows {
		a, e2e := row.Run.Attribution, &row.Run.MissLatency
		c := []string{
			AppLabel(row.App), row.Arch,
			fmt.Sprintf("%d", e2e.Count),
			fmt.Sprintf("%.0f", e2e.Mean()),
			fmt.Sprintf("%.0f", e2e.Percentile(50)),
			fmt.Sprintf("%.0f", e2e.Percentile(95)),
			fmt.Sprintf("%.0f", e2e.Percentile(99)),
		}
		for i := 0; i < obs.NumStages; i++ {
			c = append(c, fmt.Sprintf("%.1f", 100*a.StageShare(obs.StageName(i))))
		}
		cells = append(cells, c)
	}
	return renderTable("Latency attribution: miss-latency decomposition by pipeline stage (% of attributed cycles)",
		header, cells)
}
