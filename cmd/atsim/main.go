// Command atsim runs one of the paper's applications under one
// scheduling policy on a configured simulated machine and prints the
// counters — the building block of the Figure 8/9 experiments, exposed
// for ad-hoc investigation.
//
// Usage:
//
//	atsim -app tasks -policy LFF -cpus 8 -scale 0.5
//	atsim -app tasks -policy LFF-SH -cpus 8 -topology shared-llc
//	atsim -app tasks -policy LFF -cpus 4 -record run.json
//	atsim -replay run.json
//	atsim -app tasks -cpus 4 -faults all -health
//	atsim -app tasks -cpus 4 -trace-out trace.json -metrics-out metrics.prom
//	atsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/fsatomic"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/platform/faulty"
	"repro/internal/platform/replay"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "tasks", "application: tasks, merge, photo or tsp")
	policy := flag.String("policy", "LFF", "scheduling policy: "+strings.Join(model.Schemes(), ", "))
	cpus := flag.Int("cpus", 1, "processor count (1 = Ultra-1, >1 = E5000)")
	topology := flag.String("topology", "", "cache topology: private-dm, shared-llc, shared-assoc:W or shared-fa (default private-dm)")
	scale := flag.Float64("scale", 1.0, "workload scale (1.0 = the paper's Table 4 parameters)")
	seed := flag.Uint64("seed", 11, "random seed")
	noAnnot := flag.Bool("no-annotations", false, "ignore at_share annotations (ablation)")
	timeline := flag.Int("timeline", 0, "print the first N context switches (cpu, thread, name)")
	verbose := flag.Bool("verbose", false, "print per-CPU counters and bus traffic")
	record := flag.String("record", "", "capture the run's scheduling trace to this file (JSON)")
	replayFile := flag.String("replay", "", "replay a recorded trace through the scheduler instead of simulating")
	faults := flag.String("faults", "", "inject counter faults: wrap=BITS,stuck=LEN@EVERY,drop=LEN@EVERY,spike=DELTA@EVERY,skew=CYCLES,seed=N, or 'all'")
	health := flag.Bool("health", false, "print per-CPU counter health after the run")
	stallTimeout := flag.Duration("stall-timeout", 0, "abort with a diagnostic dump if no dispatch happens for this much wall time (e.g. 30s; 0 disables)")
	obsLevel := flag.String("obs", "off", "observability level: off, metrics or trace")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the run to this file (implies -obs trace)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus metrics of the run to this file (implies -obs metrics)")
	debugAddr := flag.String("debug-addr", "", "serve pprof/expvar/metrics debug endpoints on this address")
	list := flag.Bool("list", false, "list applications and exit")
	flag.Parse()

	if *list {
		for _, a := range workloads.SchedApps() {
			fmt.Printf("%-6s %5d threads  %s\n", a.Name, a.Threads, a.Params)
		}
		return
	}

	if *replayFile != "" {
		if err := runReplay(*replayFile); err != nil {
			fmt.Fprintln(os.Stderr, "atsim:", err)
			os.Exit(1)
		}
		return
	}

	// Validate every input before doing any work, so a typo fails fast
	// with usage instead of surfacing deep inside a run.
	if _, err := workloads.SchedAppByName(*app); err != nil {
		usageError(err)
	}
	if _, err := model.SchemeFor(*policy); err != nil {
		usageError(err)
	}
	topo, err := cachesim.ParseTopology(*topology)
	if err != nil {
		usageError(err)
	}
	if err := machineConfig(*cpus, topo).Validate(); err != nil {
		usageError(err)
	}
	if *scale <= 0 {
		usageError(fmt.Errorf("scale %v must be positive", *scale))
	}
	faultCfg, err := faulty.ParseSpec(*faults)
	if err != nil {
		usageError(err)
	}
	level, err := obs.ParseLevel(*obsLevel)
	if err != nil {
		usageError(err)
	}
	if *traceOut != "" && level < obs.Trace {
		level = obs.Trace
	}
	if *metricsOut != "" && level < obs.Metrics {
		level = obs.Metrics
	}
	if *stallTimeout != 0 && (*record != "" || *timeline > 0 || *verbose) {
		usageError(fmt.Errorf("-stall-timeout only applies to the default and -faults run modes"))
	}
	session := obs.NewSession(level, 0)
	if *debugAddr != "" {
		bound, err := session.StartDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "atsim: debug endpoints on http://%s/debug/pprof (metrics at /metrics)\n", bound)
	}

	switch {
	case faultCfg.Enabled() || *health:
		err = runFaults(*app, *policy, *cpus, topo, *scale, *seed, *noAnnot, faultCfg, session, *stallTimeout)
	case *record != "":
		err = runRecord(*record, *app, *policy, *cpus, topo, *scale, *seed, *noAnnot, session)
	case *timeline > 0:
		err = runTimeline(*app, *policy, *cpus, topo, *scale, *seed, *timeline, session)
	case *verbose:
		err = runVerbose(*app, *policy, *cpus, topo, *scale, *seed, *noAnnot, session)
	default:
		err = runDefault(*app, *policy, *cpus, topo, *scale, *seed, *noAnnot, session, *stallTimeout)
	}
	if err == nil {
		err = exportObs(session, *traceOut, *metricsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atsim:", err)
		os.Exit(1)
	}
}

// cellKey names the single observer cell of a direct atsim run; faults
// runs get a suffix so a fault-injected trace is never confused with a
// clean one.
func cellKey(app, policy string, cpus int, faulted bool) string {
	key := fmt.Sprintf("%s/%s/%dcpu", app, policy, cpus)
	if faulted {
		key += "/faults"
	}
	return key
}

// exportObs writes the requested trace and metrics files after any run
// mode completes.
func exportObs(session *obs.Session, traceOut, metricsOut string) error {
	if traceOut != "" {
		if err := session.WriteTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "atsim: wrote Chrome trace to %s\n", traceOut)
	}
	if metricsOut != "" {
		if err := session.WriteMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "atsim: wrote Prometheus metrics to %s\n", metricsOut)
	}
	return nil
}

// runDefault is the plain counters-only run behind the flagless
// invocation.
func runDefault(appName, policy string, cpus int, topo cachesim.Topology, scale float64, seed uint64, noAnnot bool, session *obs.Session, stallTimeout time.Duration) error {
	run, err := experiments.RunSched(appName, policy, experiments.SchedConfig{
		CPUs:               cpus,
		Topology:           topo.String(),
		Scale:              scale,
		Seed:               seed,
		DisableAnnotations: noAnnot,
		Obs:                session,
		StallTimeout:       stallTimeout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s on %d cpu(s), scale %.2f:\n", run.App, run.Policy, run.CPUs, scale)
	fmt.Printf("  E-cache refs       %12d\n", run.ERefs)
	fmt.Printf("  E-cache misses     %12d (%.2f%% miss ratio)\n", run.EMisses, 100*run.MissRatio())
	fmt.Printf("  cycles             %12d\n", run.Cycles)
	fmt.Printf("  instructions       %12d\n", run.Instrs)
	fmt.Printf("  context switches   %12d\n", run.Dispatch)
	fmt.Printf("  heap operations    %12d\n", run.HeapOps)
	fmt.Printf("  steals             %12d\n", run.Steals)
	return nil
}

// usageError reports a bad flag value and exits with the conventional
// usage status.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "atsim:", err)
	flag.Usage()
	os.Exit(2)
}

// machineConfig maps the -cpus and -topology flags to the paper's
// platforms.
func machineConfig(cpus int, topo cachesim.Topology) machine.Config {
	cfg := machine.UltraSPARC1()
	if cpus != 1 {
		cfg = machine.Enterprise5000(cpus)
	}
	cfg.Topology = topo
	return cfg
}

// buildEngine constructs the machine + engine pair for the direct-run
// modes (verbose, timeline, record), attaching the run's observer.
func buildEngine(policy string, cpus int, topo cachesim.Topology, seed uint64, noAnnot bool, o *obs.Observer) (*machine.Machine, *rt.Engine, error) {
	m := machine.New(machineConfig(cpus, topo))
	e, err := rt.New(sim.New(m), rt.Options{Policy: policy, Seed: seed, DisableAnnotations: noAnnot, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	return m, e, nil
}

// printMachineDetail renders per-CPU counters and bus traffic after a
// verbose run.
func printMachineDetail(m *machine.Machine, e *rt.Engine) {
	snap := e.Snapshot()
	idle := snap.IdleCycles
	fmt.Println("  per-CPU:")
	for i := 0; i < m.NCPU(); i++ {
		cpu := m.CPU(i)
		util := 100 * (1 - float64(idle[i])/float64(cpu.Cycles))
		fmt.Printf("    cpu%-2d cycles %11d  instr %11d  E-misses %9d  util %5.1f%%\n",
			i, cpu.Cycles, cpu.Instrs, cpu.EMisses, util)
	}
	tr := m.MemoryTraffic()
	fmt.Printf("  bus traffic: %d KB fills, %d KB writebacks\n",
		tr.FillBytes/1024, tr.WritebackBytes/1024)
	times := snap.Threads
	if len(times) > 5 {
		times = times[:5]
	}
	fmt.Println("  top threads by CPU time:")
	for _, tt := range times {
		fmt.Printf("    %-6v %-12s %11d cy in %d dispatches\n", tt.ID, tt.Name, tt.Cycles, tt.Dispatches)
	}
}

// runVerbose runs the app once with direct machine access and prints
// the detailed breakdown.
func runVerbose(appName, policy string, cpus int, topo cachesim.Topology, scale float64, seed uint64, noAnnot bool, session *obs.Session) error {
	app, err := workloads.SchedAppByName(appName)
	if err != nil {
		return err
	}
	m, e, err := buildEngine(policy, cpus, topo, seed, noAnnot, session.Observer(cellKey(appName, policy, cpus, false), cpus))
	if err != nil {
		return err
	}
	app.Spawn(e, scale)
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	refs, _, misses := m.Totals()
	fmt.Printf("%s under %s on %d cpu(s), scale %.2f:\n", appName, policy, cpus, scale)
	fmt.Printf("  E-refs %d, E-misses %d, cycles %d\n", refs, misses, m.MaxCycles())
	printMachineDetail(m, e)
	return nil
}

// runFaults runs the app with the fault-injecting platform wrapped
// around the simulator and reports the per-CPU counter-health
// accounting — the runtime's sanitizer and quarantine machinery at
// work against lying instrumentation.
func runFaults(appName, policy string, cpus int, topo cachesim.Topology, scale float64, seed uint64, noAnnot bool, cfg faulty.Config, session *obs.Session, stallTimeout time.Duration) error {
	app, err := workloads.SchedAppByName(appName)
	if err != nil {
		return err
	}
	m := machine.New(machineConfig(cpus, topo))
	plat, err := faulty.New(sim.New(m), cfg)
	if err != nil {
		return err
	}
	e, err := rt.New(plat, rt.Options{Policy: policy, Seed: seed, DisableAnnotations: noAnnot,
		Obs:          session.Observer(cellKey(appName, policy, cpus, cfg.Enabled()), cpus),
		StallTimeout: stallTimeout})
	if err != nil {
		return err
	}
	app.Spawn(e, scale)
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	refs, _, misses := m.Totals()
	fmt.Printf("%s under %s on %d cpu(s), scale %.2f, faults %s:\n", appName, policy, cpus, scale, cfg)
	fmt.Printf("  E-refs %d, E-misses %d, cycles %d\n", refs, misses, m.MaxCycles())
	fmt.Println("  counter health:")
	for _, h := range e.Snapshot().Health {
		fmt.Printf("    %s\n", h)
	}
	return nil
}

// runTimeline executes the app printing the first n dispatches — a
// quick view of what the policy actually does with the threads.
func runTimeline(appName, policy string, cpus int, topo cachesim.Topology, scale float64, seed uint64, n int, session *obs.Session) error {
	app, err := workloads.SchedAppByName(appName)
	if err != nil {
		return err
	}
	m, e, err := buildEngine(policy, cpus, topo, seed, false, session.Observer(cellKey(appName, policy, cpus, false), cpus))
	if err != nil {
		return err
	}
	count := 0
	e.OnDispatch = func(cpu int, tid mem.ThreadID, name string) {
		if count < n {
			fmt.Printf("%8d cy  cpu%-2d  %-6v  %s\n", m.CPU(cpu).Cycles, cpu, tid, name)
		}
		count++
	}
	app.Spawn(e, scale)
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	fmt.Printf("... %d dispatches total\n", count)
	return nil
}

// runRecord executes the app on the simulator while capturing the
// scheduling trace, then saves the recording for later -replay.
func runRecord(path, appName, policy string, cpus int, topo cachesim.Topology, scale float64, seed uint64, noAnnot bool, session *obs.Session) error {
	app, err := workloads.SchedAppByName(appName)
	if err != nil {
		return err
	}
	m, e, err := buildEngine(policy, cpus, topo, seed, noAnnot, session.Observer(cellKey(appName, policy, cpus, false), cpus))
	if err != nil {
		return err
	}
	plat := e.Platform()
	rec := trace.NewRecorder(policy, plat.NCPU(), plat.CacheLines(),
		plat.LineBytes(), plat.PageBytes(), 16)
	if topo.Shared() {
		// Stamp shared-topology provenance; the zero value stays absent
		// so pre-existing recordings of the private hierarchy are
		// byte-identical.
		rec.SetTopology(topo.String())
	}
	e.OnEvent = rec.Observe
	app.Spawn(e, scale)
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	// Atomic write: a kill mid-save leaves no torn recording behind.
	if err := fsatomic.WriteFile(path, func(w io.Writer) error {
		return rec.Recording().Save(w)
	}); err != nil {
		return err
	}
	refs, _, misses := m.Totals()
	fmt.Printf("recorded %d events (%d intervals) from %s/%s on %d cpu(s) to %s\n",
		len(rec.Recording().Events), len(rec.Recording().Intervals()), appName, policy, cpus, path)
	fmt.Printf("  E-refs %d, E-misses %d, cycles %d\n", refs, misses, m.MaxCycles())
	return nil
}

// runReplay loads a recording and replays it through the real
// scheduler/model stack — no simulator in the loop.
func runReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := trace.Load(f)
	if err != nil {
		return err
	}
	res, err := replay.Evaluate(rec)
	if err != nil {
		return err
	}
	var misses uint64
	for _, iv := range res.Intervals {
		misses += iv.Misses
	}
	fmt.Printf("replayed %d intervals under %s on %d cpu(s): %d interval misses, %d model FLOPs\n",
		len(res.Intervals), res.Policy, rec.NCPU, misses, res.Flops)
	show := res.Intervals
	if len(show) > 10 {
		show = show[:10]
	}
	for _, iv := range show {
		fmt.Printf("  #%-4d cpu%-2d %-6v n=%-8d S=%-10.2f prio=%.4f\n",
			iv.Index, iv.CPU, iv.Thread, iv.Misses, iv.S, iv.Prio)
	}
	if len(res.Intervals) > len(show) {
		fmt.Printf("  ... %d more\n", len(res.Intervals)-len(show))
	}
	return nil
}
