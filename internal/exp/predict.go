package exp

import (
	"fmt"
	"sort"

	"ccnuma/internal/machine"
	"ccnuma/internal/pram"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// PredictionRow compares the paper's Section 3.3 methodology against
// ground truth for one application: the fast PRAM RCCPI estimate, the
// penalty predicted from the small-data-calibrated penalty-vs-RCCPI curve,
// and the detailed simulator's actual penalty. (The misprediction the
// paper itself warns about — Cholesky, whose load imbalance suppresses its
// penalty below its RCCPI — reproduces here.)
type PredictionRow struct {
	App              string
	PRAMRCCPIx1000   float64
	ActualRCCPIx1000 float64
	Predicted        float64
	Actual           float64
}

// PredictionResult is the full Section 3.3 reproduction.
type PredictionResult struct {
	// Curve is the calibration set: (RCCPI, penalty) points measured by
	// detailed simulation of simpler (small-data) runs across
	// communication rates.
	Curve []stats.CurvePoint
	Rows  []PredictionRow
}

// Prediction runs the methodology end to end: calibrate the penalty curve
// by detailed simulation of the applications at reduced data sizes,
// estimate each base-size application's RCCPI with the PRAM estimator
// (functional, fast), and predict its penalty by interpolation — then
// compare with the detailed simulator's measured penalty.
func (s *Suite) Prediction() (*PredictionResult, error) {
	res := &PredictionResult{}

	// 1. Calibration curve from detailed simulation of "simpler
	// applications covering a range of communication rates" (the paper's
	// own wording): the suite's applications at reduced data sizes, plus a
	// low-communication micro anchor. The base runs give each
	// application's detailed RCCPI and penalty.
	calApps := []string{"water-sp", "barnes", "water-nsq", "fft", "radix", "ocean"}
	vCal := variant{name: "cal-small", size: workload.SizeSmall}
	var p plan
	for _, app := range calApps {
		p.pair(s.req(app, "HWC", vCal), s.req(app, "PPC", vCal), func(hwc, ppc *stats.Run) {
			res.Curve = append(res.Curve, stats.CurvePoint{
				X: 1000 * hwc.RCCPI(),
				Y: stats.Penalty(hwc, ppc),
			})
		})
	}
	for _, app := range workload.PaperApps {
		p.pair(s.req(app, "HWC", base()), s.req(app, "PPC", base()), func(hwc, ppc *stats.Run) {
			res.Rows = append(res.Rows, PredictionRow{
				App:              AppLabel(app),
				ActualRCCPIx1000: 1000 * hwc.RCCPI(),
				Actual:           stats.Penalty(hwc, ppc),
			})
		})
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	// Low anchor: a nearly computation-only micro run.
	{
		var runs [2]*stats.Run
		for i, arch := range []string{"HWC", "PPC"} {
			cfg, err := s.machine("micro").WithArch(arch)
			if err != nil {
				return nil, err
			}
			m, err := machine.New(cfg, "micro")
			if err != nil {
				return nil, err
			}
			if runs[i], err = workload.Run(m, workload.NewMicro(150, 2, 300, m.NProcs())); err != nil {
				return nil, err
			}
		}
		res.Curve = append(res.Curve, stats.CurvePoint{
			X: 1000 * runs[0].RCCPI(),
			Y: stats.Penalty(runs[0], runs[1]),
		})
	}
	sort.Slice(res.Curve, func(i, j int) bool { return res.Curve[i].X < res.Curve[j].X })

	// 2. Per-application PRAM estimate and the prediction it reads off the
	// curve.
	for i, app := range workload.PaperApps {
		est, err := s.pramRCCPI(app)
		if err != nil {
			return nil, err
		}
		res.Rows[i].PRAMRCCPIx1000 = 1000 * est
		res.Rows[i].Predicted = interpolate(res.Curve, 1000*est)
	}
	return res, nil
}

// pramRCCPI runs the functional estimator over one application.
func (s *Suite) pramRCCPI(app string) (float64, error) {
	m, err := machine.New(s.machine(app), app)
	if err != nil {
		return 0, err
	}
	w, err := workload.New(app, s.baseSize(), m.NProcs())
	if err != nil {
		return 0, err
	}
	if err := w.Setup(m); err != nil {
		return 0, err
	}
	est := pram.New(&m.Cfg, m.Space)
	if err := est.Run(w.Body); err != nil {
		return 0, err
	}
	return est.RCCPI(), nil
}

// interpolate evaluates the piecewise-linear calibration curve at x,
// clamping outside the measured range.
func interpolate(curve []stats.CurvePoint, x float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if x <= curve[0].X {
		return curve[0].Y
	}
	for i := 1; i < len(curve); i++ {
		if x <= curve[i].X {
			a, b := curve[i-1], curve[i]
			t := (x - a.X) / (b.X - a.X)
			return a.Y + t*(b.Y-a.Y)
		}
	}
	return curve[len(curve)-1].Y
}

// Render formats the prediction study.
func (r *PredictionResult) Render() string {
	var rows [][]string
	for _, p := range r.Curve {
		rows = append(rows, []string{"calibration (small data)",
			fmt.Sprintf("%.2f", p.X), "", fmt.Sprintf("%.0f%%", 100*p.Y), ""})
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			fmt.Sprintf("%.2f", row.PRAMRCCPIx1000),
			fmt.Sprintf("%.2f", row.ActualRCCPIx1000),
			fmt.Sprintf("%.0f%%", 100*row.Predicted),
			fmt.Sprintf("%.0f%%", 100*row.Actual),
		})
	}
	return renderTable("Prediction methodology (paper section 3.3): PRAM RCCPI + small-data-calibrated curve vs detailed simulation",
		[]string{"Point", "1000xRCCPI (PRAM)", "1000xRCCPI (detailed)", "Predicted penalty", "Actual penalty"}, rows)
}
