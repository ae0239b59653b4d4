// Command cctables regenerates every table and figure of the paper's
// evaluation section (Tables 1-4, 6, 7 and Figures 6-12).
//
// Usage:
//
//	cctables                 # everything at base problem sizes
//	cctables -only fig6      # one artifact (table1..table7, fig6..fig12)
//	cctables -size test      # quick smoke run at tiny sizes (test, small, base, large)
//	cctables -v              # per-simulation progress
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ccnuma/internal/exp"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
)

func main() {
	size := flag.String("size", "base", "problem size: test, small, base, large")
	only := flag.String("only", "", "regenerate one artifact: table1,table2,table3,table4,table6,table7,fig6,fig7,fig8,fig9,fig10,fig11,fig12,ext,placement,predict")
	attribution := flag.Bool("attribution", false, "print only the latency-attribution table (per kernel x architecture, span tracing on)")
	verbose := flag.Bool("v", false, "print per-simulation progress")
	jsonPath := flag.String("json", "", "write one run-artifact document per simulation to this file (JSON array)")
	jobs := flag.Int("jobs", 0, "simulations to run concurrently (0 = GOMAXPROCS; 1 = serial; output is identical for any value)")
	flag.Parse()

	sc, err := scenario.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cctables: -size:", err)
		os.Exit(2)
	}
	if err := scenario.CheckOutputFiles(*jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "cctables:", err)
		os.Exit(1)
	}
	s := exp.NewSuite(sc)
	s.Jobs = *jobs
	if *verbose {
		s.Progress = os.Stderr
	}
	s.CollectArtifacts = *jsonPath != ""

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if *attribution {
		rows, err := s.Attribution()
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.RenderAttribution(rows))
		if *jsonPath != "" {
			if err := obs.WriteArtifactsFile(*jsonPath, s.Artifacts()); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "artifacts: %s (%d simulations)\n", *jsonPath, len(s.Artifacts()))
		}
		return
	}

	if want("table1") {
		fmt.Println(exp.Table1())
	}
	if want("table2") {
		fmt.Println(exp.Table2())
	}
	if want("table3") {
		t3, err := exp.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println(t3.Render())
	}
	if want("table4") {
		fmt.Println(exp.Table4())
	}
	if want("fig6") {
		f, err := s.Figure6()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("fig7") {
		f, err := s.Figure7()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("fig8") {
		f, err := s.Figure8()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("fig9") {
		f, err := s.Figure9()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("fig10") {
		f, err := s.Figure10()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("table6") {
		rows, err := s.Table6()
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.RenderTable6(rows))
	}
	if want("table7") {
		rows, err := s.Table7()
		if err != nil {
			fail(err)
		}
		fmt.Println(exp.RenderTable7(rows))
	}
	if want("fig11") {
		f, err := s.Figure11()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("fig12") {
		f, err := s.Figure12()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("ext") {
		f, err := s.Extensions()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("placement") {
		f, err := s.Placement()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if want("predict") {
		f, err := s.Prediction()
		if err != nil {
			fail(err)
		}
		fmt.Println(f.Render())
	}
	if *jsonPath != "" {
		if err := obs.WriteArtifactsFile(*jsonPath, s.Artifacts()); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "artifacts: %s (%d simulations)\n", *jsonPath, len(s.Artifacts()))
	}
}
