package exp

import (
	"fmt"
	"strings"

	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// FigureResult holds normalized execution times: for each application, one
// value per architecture, normalized by the named baseline run.
type FigureResult struct {
	Title string
	// Apps in presentation order; Series[arch][app] = normalized time.
	Apps   []string
	Archs  []string
	Series map[string]map[string]float64
	// Notes holds derived observations (penalties etc.).
	Notes []string
}

// Render draws the figure as a text table of normalized execution times.
func (f *FigureResult) Render() string {
	header := append([]string{"Application"}, f.Archs...)
	var rows [][]string
	for _, app := range f.Apps {
		row := []string{AppLabel(app)}
		for _, arch := range f.Archs {
			row = append(row, fmt.Sprintf("%.3f", f.Series[arch][app]))
		}
		rows = append(rows, row)
	}
	out := renderTable(f.Title, header, rows)
	if len(f.Notes) > 0 {
		out += strings.Join(f.Notes, "\n") + "\n"
	}
	return out
}

// PPPenalty returns the PPC-over-HWC penalty for an app in this figure.
func (f *FigureResult) PPPenalty(app string) float64 {
	h, p := f.Series["HWC"][app], f.Series["PPC"][app]
	if h == 0 {
		return 0
	}
	return p/h - 1
}

// normalized builds a figure over the given apps and variants, normalizing
// by each app's baseline run (HWC under baseVariant).
func (s *Suite) normalized(title string, apps []string, archs []string, v variant, baseVariant variant) (*FigureResult, error) {
	f := &FigureResult{Title: title, Apps: apps, Archs: archs, Series: map[string]map[string]float64{}}
	for _, arch := range archs {
		f.Series[arch] = map[string]float64{}
	}
	var p plan
	for _, app := range apps {
		var baseRun *stats.Run
		p.add(s.req(app, "HWC", baseVariant), func(r *stats.Run) { baseRun = r })
		for _, arch := range archs {
			p.add(s.req(app, arch, v), func(r *stats.Run) {
				f.Series[arch][app] = float64(r.ExecTime) / float64(baseRun.ExecTime)
			})
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	for _, app := range apps {
		f.Notes = append(f.Notes, fmt.Sprintf("  %-10s PP penalty: %+.0f%%", AppLabel(app), 100*f.PPPenalty(app)))
	}
	return f, nil
}

var allArchs = []string{"HWC", "2HWC", "PPC", "2PPC"}

// Figure6 reproduces the base-configuration comparison of the four
// controller architectures over the eight applications.
func (s *Suite) Figure6() (*FigureResult, error) {
	return s.normalized(
		"Figure 6: normalized execution time on the base system configuration (HWC base = 1.0)",
		workload.PaperApps, allArchs, base(), base())
}

// Figure7 reproduces the 32-byte cache line experiment (normalized to the
// 128-byte-line HWC base, as in the paper).
func (s *Suite) Figure7() (*FigureResult, error) {
	v := variant{name: "line32", param: "line", value: 32}
	return s.normalized(
		"Figure 7: normalized execution time with small (32 byte) cache lines (base-system HWC = 1.0)",
		workload.PaperApps, allArchs, v, base())
}

// Figure8 reproduces the slow-network (1 us point-to-point) experiment for
// the four applications with the largest PP penalties.
func (s *Suite) Figure8() (*FigureResult, error) {
	v := variant{name: "slownet", param: "netlat", value: 200}
	apps := []string{"water-nsq", "fft", "radix", "ocean"}
	return s.normalized(
		"Figure 8: normalized execution time with high (1 us) network latency (base-system HWC = 1.0)",
		apps, allArchs, v, base())
}

// Figure9Result pairs base- and large-data results for FFT and Ocean.
type Figure9Result struct {
	Base, Large *FigureResult
}

// Render formats both halves of Figure 9.
func (f *Figure9Result) Render() string {
	return f.Base.Render() + "\n" + f.Large.Render()
}

// Figure9 reproduces the data-size sensitivity experiment: the PP penalty
// shrinks as data sizes grow (FFT 4x points, Ocean ~2x grid side).
func (s *Suite) Figure9() (*Figure9Result, error) {
	apps := []string{"fft", "ocean"}
	baseFig, err := s.normalized(
		"Figure 9a: normalized execution time, base data sizes (per-app HWC = 1.0)",
		apps, allArchs, base(), base())
	if err != nil {
		return nil, err
	}
	vLarge := variant{name: "large", size: workload.SizeLarge}
	largeFig, err := s.normalized(
		"Figure 9b: normalized execution time, large data sizes (per-app large-HWC = 1.0)",
		apps, allArchs, vLarge, vLarge)
	if err != nil {
		return nil, err
	}
	return &Figure9Result{Base: baseFig, Large: largeFig}, nil
}

// Figure10Result holds the processors-per-node sweep: for each app and
// node width, normalized times per architecture.
type Figure10Result struct {
	Apps   []string
	Widths []int
	Archs  []string
	// Series[app][width][arch] = exec time normalized by the app's
	// base-configuration HWC run.
	Series map[string]map[int]map[string]float64
}

// Render formats the sweep.
func (f *Figure10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: normalized execution time with 1, 2, 4, and 8 processors per SMP node\n")
	b.WriteString("(normalized to each application's 4-processors-per-node HWC run)\n\n")
	header := append([]string{"Application", "procs/node"}, f.Archs...)
	var rows [][]string
	for _, app := range f.Apps {
		for _, wdt := range f.Widths {
			row := []string{AppLabel(app), fmt.Sprintf("%d", wdt)}
			for _, arch := range f.Archs {
				row = append(row, fmt.Sprintf("%.3f", f.Series[app][wdt][arch]))
			}
			rows = append(rows, row)
		}
	}
	b.WriteString(renderTable("", header, rows))
	return b.String()
}

// Figure10 sweeps the number of processors per SMP node while keeping the
// total processor count fixed (64, or 32 for LU and Cholesky), as the
// paper does.
func (s *Suite) Figure10() (*Figure10Result, error) {
	widths := []int{1, 2, 4, 8}
	f := &Figure10Result{Apps: workload.PaperApps, Widths: widths, Archs: allArchs,
		Series: map[string]map[int]map[string]float64{}}
	var p plan
	for _, app := range f.Apps {
		nodes, ppn := s.geometry(app)
		f.Series[app] = map[int]map[string]float64{}
		var baseRun *stats.Run
		p.add(s.req(app, "HWC", base()), func(r *stats.Run) { baseRun = r })
		for _, wdt := range widths {
			if nodes*ppn/wdt < 1 {
				continue
			}
			f.Series[app][wdt] = map[string]float64{}
			v := variant{name: fmt.Sprintf("ppn%d", wdt), param: "ppn", value: wdt}
			for _, arch := range allArchs {
				p.add(s.req(app, arch, v), func(r *stats.Run) {
					f.Series[app][wdt][arch] = float64(r.ExecTime) / float64(baseRun.ExecTime)
				})
			}
		}
	}
	if err := s.runs(p); err != nil {
		return nil, err
	}
	return f, nil
}

// CurvePoint is one (RCCPI, y) sample of Figures 11 and 12.
type CurvePoint struct {
	Label      string
	RCCPIx1000 float64
	Y          float64
}

// Figure11Result holds the arrival-rate-versus-RCCPI saturation curves.
type Figure11Result struct {
	HWC, PPC []CurvePoint // y = requests per microsecond per controller
}

// Render formats the saturation curves.
func (f *Figure11Result) Render() string {
	var rows [][]string
	for i := range f.HWC {
		rows = append(rows, []string{
			f.HWC[i].Label,
			fmt.Sprintf("%.2f", f.HWC[i].RCCPIx1000),
			fmt.Sprintf("%.2f", f.HWC[i].Y),
			fmt.Sprintf("%.2f", f.PPC[i].Y),
		})
	}
	return renderTable("Figure 11: coherence controller bandwidth limitations (arrival rate vs RCCPI)",
		[]string{"Point", "1000xRCCPI", "HWC req/us", "PPC req/us"}, rows)
}

// curvePoints runs the point set of Figures 11 and 12 on HWC and PPC and
// hands each point's label and two runs to use: the base applications
// (except LU and Cholesky, which run on 32 processors in the paper) plus
// the large data sizes of FFT and Ocean.
func (s *Suite) curvePoints(use func(label string, hwc, ppc *stats.Run)) error {
	type point struct {
		label, app string
		v          variant
	}
	var pts []point
	for _, app := range workload.PaperApps {
		if app != "lu" && app != "cholesky" {
			pts = append(pts, point{AppLabel(app), app, base()})
		}
	}
	large := variant{name: "large", size: workload.SizeLarge}
	pts = append(pts, point{"FFT-large", "fft", large}, point{"Ocean-large", "ocean", large})
	var p plan
	for _, pt := range pts {
		p.pair(s.req(pt.app, "HWC", pt.v), s.req(pt.app, "PPC", pt.v), func(hwc, ppc *stats.Run) {
			use(pt.label, hwc, ppc)
		})
	}
	return s.runs(p)
}

// Figure11 computes the arrival rate of requests to each controller
// architecture against RCCPI, showing PPC saturating below HWC.
func (s *Suite) Figure11() (*Figure11Result, error) {
	f := &Figure11Result{}
	if err := s.curvePoints(func(label string, hwc, ppc *stats.Run) {
		f.HWC = append(f.HWC, CurvePoint{label, 1000 * hwc.RCCPI(), hwc.ArrivalRatePerMicrosecond()})
		f.PPC = append(f.PPC, CurvePoint{label, 1000 * ppc.RCCPI(), ppc.ArrivalRatePerMicrosecond()})
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Figure12Result holds the PP-penalty-versus-RCCPI curve.
type Figure12Result struct {
	Points []CurvePoint // y = PP penalty
}

// Render formats the penalty curve.
func (f *Figure12Result) Render() string {
	var rows [][]string
	for _, p := range f.Points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.2f", p.RCCPIx1000),
			fmt.Sprintf("%.0f%%", 100*p.Y),
		})
	}
	return renderTable("Figure 12: effect of communication rate (RCCPI) on PP penalty",
		[]string{"Point", "1000xRCCPI", "PP penalty"}, rows)
}

// Figure12 computes the PP penalty against RCCPI for the standard point
// set, the paper's prediction methodology.
func (s *Suite) Figure12() (*Figure12Result, error) {
	f := &Figure12Result{}
	if err := s.curvePoints(func(label string, hwc, ppc *stats.Run) {
		f.Points = append(f.Points, CurvePoint{label, 1000 * hwc.RCCPI(), stats.Penalty(hwc, ppc)})
	}); err != nil {
		return nil, err
	}
	return f, nil
}
