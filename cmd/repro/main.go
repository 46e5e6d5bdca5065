// Command repro regenerates the tables and figures of "Performance
// Counters and State Sharing Annotations: a Unified Approach to Thread
// Locality" (Weissman, ASPLOS 1998) on the simulated substrate.
//
// Usage:
//
//	repro [flags] <experiment>...
//
// Experiments: table1 table2 table3 table4 table5 fig4 fig5 fig6 fig7
// fig8 fig9 ablation sharedllc all
//
// Flags:
//
//	-scale f    workload scale for the scheduling experiments (default 1.0)
//	-seed n     random seed (default 11)
//	-cpus n     SMP size for fig9/ablation (default 8)
//	-topology t cache topology for the scheduling experiments:
//	            private-dm (default), shared-llc, shared-assoc:W, shared-fa
//	-quick      shorthand for -scale 0.1 and shorter footprint studies
//	-j n        worker threads for independent experiment cells
//	            (default 1; 0 = all processors; results are identical
//	            for any value)
//	-obs l          observability level: off, metrics or trace
//	-trace-out f    write a Chrome trace of the scheduling runs (Perfetto)
//	-metrics-out f  write Prometheus metrics of the scheduling runs
//	-debug-addr a   serve pprof/expvar/metrics debug endpoints
//	-stall-timeout d     abort stalled runs with a diagnostic dump
//
// Traces and metrics are byte-identical for any -j value: observer
// cells are keyed by run configuration and exported in sorted order.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	csvDir := flag.String("csv", "", "also write figure series as CSV files into this directory")
	svgDir := flag.String("svg", "", "also render figures as SVG files into this directory")
	scale := flag.Float64("scale", 1.0, "workload scale for scheduling experiments")
	seed := flag.Uint64("seed", 11, "random seed")
	cpus := flag.Int("cpus", 8, "SMP size for fig9/ablation")
	topology := flag.String("topology", "", "cache topology for scheduling experiments: private-dm, shared-llc, shared-assoc:W or shared-fa (default private-dm)")
	quick := flag.Bool("quick", false, "fast reduced-size runs")
	jobs := flag.Int("j", 1, "worker threads for independent experiment cells (0 = all processors)")
	stallTimeout := flag.Duration("stall-timeout", 0, "abort a run with a diagnostic dump if it makes no dispatch for this much wall time (0 disables)")
	obsLevel := flag.String("obs", "off", "observability level: off, metrics or trace")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the scheduling runs to this file (implies -obs trace)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus metrics of the scheduling runs to this file (implies -obs metrics)")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar/metrics debug endpoints on this address")
	flag.Parse()

	level, err := obs.ParseLevel(*obsLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}
	if _, err := cachesim.ParseTopology(*topology); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}
	if *traceOut != "" && level < obs.Trace {
		level = obs.Trace
	}
	if *metricsOut != "" && level < obs.Metrics {
		level = obs.Metrics
	}
	session := obs.NewSession(level, 0)

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: repro [flags] table1|table2|table3|table4|table5|fig4|fig5|fig6|fig7|fig8|fig9|ablation|inference|mapping|breakdown|assoc|scaling|threshold|spawnstacks|sources|coarse|tlb|compare|validate|sharedllc|all")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *debugAddr != "" {
		bound, err := session.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: debug endpoints on http://%s/debug/pprof (metrics at /metrics)\n", bound)
	}

	sched := experiments.SchedConfig{Scale: *scale, Seed: *seed, CPUs: *cpus, Jobs: *jobs, Obs: session,
		StallTimeout: *stallTimeout, Topology: *topology}
	study := experiments.StudyConfig{Seed: *seed, Jobs: *jobs}
	if *quick {
		if *scale == 1.0 {
			sched.Scale = 0.1
		}
		study.MaxMisses = 6000
	}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = []string{"table1", "table2", "table3", "table4", "fig4",
			"fig5", "fig6", "fig7", "fig8", "fig9", "table5", "ablation",
			"inference", "mapping", "breakdown", "assoc", "threshold", "spawnstacks", "sources",
			"sharedllc"}
	}

	for _, name := range args {
		out, err := run(name, sched, study)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(strings.TrimRight(out, "\n"))
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, study); err != nil {
				fmt.Fprintf(os.Stderr, "repro: csv %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, name, study); err != nil {
				fmt.Fprintf(os.Stderr, "repro: svg %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}

	if *traceOut != "" {
		if err := session.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: wrote Chrome trace (%d cells) to %s\n", len(session.Cells()), *traceOut)
	}
	if *metricsOut != "" {
		if err := session.WriteMetricsFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: wrote Prometheus metrics to %s\n", *metricsOut)
	}
}

// writeCSV re-derives the figure's series and writes them as CSV. Runs
// are deterministic, so regenerating costs only time.
func writeCSV(dir, name string, study experiments.StudyConfig) error {
	var series []*stats.Series
	switch name {
	case "fig4":
		res := experiments.Fig4(study)
		// One file per curve: samples land at the actual miss counts,
		// which differ between curves.
		for label, set := range map[string][]*experiments.Curve{
			"a": res.A, "b": res.B, "c": res.C, "d": res.D,
		} {
			for _, c := range set {
				pair := []*stats.Series{
					{Label: "observed", X: c.Misses, Y: c.Observed},
					{Label: "predicted", X: c.Misses, Y: c.Predicted},
				}
				fname := "fig4" + label + "_" + strings.ReplaceAll(c.Label, "=", "")
				if err := dumpCSV(dir, fname, pair); err != nil {
					return err
				}
			}
		}
		return nil
	case "fig5", "fig7":
		results := experiments.Fig5(study)
		if name == "fig7" {
			results = experiments.Fig7(study)
		}
		// One file per application: the checkpoints land at different
		// miss counts per app, so they cannot share an x column.
		for _, r := range results {
			c := r.Footprint
			pair := []*stats.Series{
				{Label: "observed", X: c.Misses, Y: c.Observed},
				{Label: "predicted", X: c.Misses, Y: c.Predicted},
			}
			if err := dumpCSV(dir, name+"_"+r.App.Name, pair); err != nil {
				return err
			}
		}
		return nil
	case "fig6":
		for _, r := range experiments.Fig6(study) {
			mpi := r.MPI
			if err := dumpCSV(dir, "fig6_"+r.App.Name, []*stats.Series{&mpi}); err != nil {
				return err
			}
		}
		return nil
	case "assoc":
		res := experiments.AssocStudy(2, study)
		series = append(series,
			&stats.Series{Label: "observed", X: res.Misses, Y: res.Observed},
			&stats.Series{Label: "assoc model", X: res.Misses, Y: res.AssocPred},
			&stats.Series{Label: "direct-mapped model", X: res.Misses, Y: res.DMPred})
	case "sharedllc":
		res := experiments.SharedLLC(study)
		for label, set := range map[string][]*experiments.Curve{
			"a": res.A, "b": res.B, "c": res.C,
		} {
			for _, c := range set {
				pair := []*stats.Series{
					{Label: "observed", X: c.Misses, Y: c.Observed},
					{Label: "predicted", X: c.Misses, Y: c.Predicted},
				}
				fname := "sharedllc" + label + "_" + strings.ReplaceAll(strings.ReplaceAll(c.Label, "=", ""), " ", "_")
				if err := dumpCSV(dir, fname, pair); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return nil // tabular experiments have no series
	}
	return dumpCSV(dir, name, series)
}

// writeSVG renders the figure's series as SVG charts, dashing the
// model-prediction series.
func writeSVG(dir, name string, study experiments.StudyConfig) error {
	plots := map[string]*report.SVGPlot{}
	switch name {
	case "fig4":
		res := experiments.Fig4(study)
		for label, set := range map[string][]*experiments.Curve{
			"a": res.A, "b": res.B, "c": res.C, "d": res.D,
		} {
			plot := &report.SVGPlot{
				Title:  "Figure 4" + label + " — random memory walk",
				XLabel: "E-cache misses", YLabel: "footprint (lines)",
				Dashed: map[int]bool{},
			}
			for _, c := range set {
				plot.Dashed[len(plot.Series)+1] = true
				plot.Series = append(plot.Series,
					&stats.Series{Label: c.Label + " observed", X: c.Misses, Y: c.Observed},
					&stats.Series{Label: c.Label + " predicted", X: c.Misses, Y: c.Predicted})
			}
			plots["fig4"+label] = plot
		}
	case "fig5", "fig7":
		results := experiments.Fig5(study)
		if name == "fig7" {
			results = experiments.Fig7(study)
		}
		for _, r := range results {
			c := r.Footprint
			plots[name+"_"+r.App.Name] = &report.SVGPlot{
				Title:  r.App.Name + " — thread cache footprint",
				XLabel: "E-cache misses", YLabel: "footprint (lines)",
				Series: []*stats.Series{
					{Label: "observed", X: c.Misses, Y: c.Observed},
					{Label: "predicted", X: c.Misses, Y: c.Predicted},
				},
				Dashed: map[int]bool{1: true},
			}
		}
	case "fig6":
		plot := &report.SVGPlot{
			Title:  "Figure 6 — E-cache misses per 1000 instructions",
			XLabel: "instructions (millions)", YLabel: "MPI",
		}
		for _, r := range experiments.Fig6(study) {
			mpi := r.MPI
			plot.Series = append(plot.Series, &mpi)
		}
		plots["fig6"] = plot
	case "sharedllc":
		res := experiments.SharedLLC(study)
		for label, set := range map[string][]*experiments.Curve{
			"a": res.A, "b": res.B, "c": res.C,
		} {
			plot := &report.SVGPlot{
				Title:  "Shared LLC " + label + " — co-runner-aware model",
				XLabel: "total E-cache misses", YLabel: "footprint (lines)",
				Dashed: map[int]bool{},
			}
			for _, c := range set {
				plot.Dashed[len(plot.Series)+1] = true
				plot.Series = append(plot.Series,
					&stats.Series{Label: c.Label + " observed", X: c.Misses, Y: c.Observed},
					&stats.Series{Label: c.Label + " predicted", X: c.Misses, Y: c.Predicted})
			}
			plots["sharedllc"+label] = plot
		}
	case "assoc":
		res := experiments.AssocStudy(2, study)
		plots["assoc"] = &report.SVGPlot{
			Title:  "2-way LRU E-cache — observed vs models",
			XLabel: "E-cache misses", YLabel: "footprint (lines)",
			Series: []*stats.Series{
				{Label: "observed", X: res.Misses, Y: res.Observed},
				{Label: "assoc model", X: res.Misses, Y: res.AssocPred},
				{Label: "direct-mapped model", X: res.Misses, Y: res.DMPred},
			},
			Dashed: map[int]bool{1: true, 2: true},
		}
	default:
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for fname, plot := range plots {
		f, err := os.Create(filepath.Join(dir, fname+".svg"))
		if err != nil {
			return err
		}
		if _, err := plot.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func dumpCSV(dir, name string, series []*stats.Series) error {
	if len(series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.CSV(f, series...)
}

func run(name string, sched experiments.SchedConfig, study experiments.StudyConfig) (string, error) {
	switch name {
	case "list":
		return "experiments: table1 table2 table3 table4 table5 fig4 fig5 fig6 fig7 fig8 fig9\n" +
			"extensions:  ablation inference mapping breakdown assoc scaling threshold\n" +
			"             spawnstacks sources coarse tlb compare validate sharedllc\n" +
			"meta:        all list", nil
	case "table1":
		return experiments.Table1(), nil
	case "table2":
		return experiments.Table2(), nil
	case "table3":
		return experiments.Table3().Render(), nil
	case "table4":
		return experiments.Table4(), nil
	case "table5":
		res, err := experiments.Table5(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig4":
		return experiments.Fig4(study).Render(), nil
	case "fig5":
		return experiments.RenderFootprints("Figure 5", experiments.Fig5(study)), nil
	case "fig6":
		return experiments.RenderMPI(experiments.Fig6(study)), nil
	case "fig7":
		return experiments.RenderFootprints("Figure 7", experiments.Fig7(study)), nil
	case "fig8":
		res, err := experiments.Fig8(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "fig9":
		res, err := experiments.Fig9(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "ablation":
		res, err := experiments.AblationPhoto(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "inference":
		res, err := experiments.ProfiledStudy("photo", sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "mapping":
		return experiments.PageMapping(study).Render(), nil
	case "breakdown":
		return experiments.MissBreakdown(study).Render(), nil
	case "assoc":
		return experiments.AssocStudy(2, study).Render(), nil
	case "scaling":
		res, err := experiments.ScalingStudy(sched, nil)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "threshold":
		res, err := experiments.ThresholdStudy(sched, nil)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "spawnstacks":
		res, err := experiments.SpawnStackStudy(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "compare":
		res, err := experiments.Compare(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "coarse":
		res, err := experiments.CoarseStudy(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "tlb":
		return experiments.TLBStudy(study).Render(), nil
	case "sources":
		res, err := experiments.SourcesStudy(sched)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "validate":
		res, err := experiments.Validate(sched, study)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	case "sharedllc":
		acc := experiments.SharedLLC(study)
		matrix, err := experiments.SharedLLCSched(sched)
		if err != nil {
			return "", err
		}
		return acc.Render() + "\n" + matrix.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
}
