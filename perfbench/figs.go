package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/workloads"
)

// grid is one figs workload: a policy matrix on one cache topology.
type grid struct {
	name     string
	topology string
	policies []string
	// pass runs the whole grid the way a repro user does, one cell
	// after another in this goroutine, cells in apps x policies order.
	pass func(cfg experiments.SchedConfig) ([]experiments.PolicyRun, error)
}

const (
	figsCPUs  = 8
	figsScale = 0.08
	// defaultSeed is the workload seed whose figs counters are pinned.
	defaultSeed = 1
)

var privateGrid = grid{
	name: "figs-private", topology: "private-dm", policies: experiments.Policies,
	pass: func(cfg experiments.SchedConfig) ([]experiments.PolicyRun, error) {
		res, err := experiments.Fig9(cfg)
		if err != nil {
			return nil, err
		}
		return flatten(res.Apps, experiments.Policies, res.Runs), nil
	},
}

var sharedGrid = grid{
	name: "figs-shared", topology: "shared-llc", policies: experiments.SharedPolicies,
	pass: func(cfg experiments.SchedConfig) ([]experiments.PolicyRun, error) {
		res, err := experiments.SharedLLCSched(cfg)
		if err != nil {
			return nil, err
		}
		return flatten(res.Apps, experiments.SharedPolicies, res.Runs), nil
	},
}

func flatten(apps, policies []string, runs map[string]map[string]experiments.PolicyRun) []experiments.PolicyRun {
	var out []experiments.PolicyRun
	for _, app := range apps {
		for _, p := range policies {
			out = append(out, runs[app][p])
		}
	}
	return out
}

// figsSeed derives the simulation seed of every cell from the workload
// seed; the default workload seed maps to the repository's default 11.
func figsSeed(seed uint64) uint64 {
	if s := seed + 10; s != 0 {
		return s
	}
	return 11
}

func (g grid) config(seed uint64) experiments.SchedConfig {
	return experiments.SchedConfig{
		CPUs: figsCPUs, Scale: figsScale, Seed: figsSeed(seed), Jobs: 1, Topology: g.topology,
	}
}

type cell struct{ app, policy string }

func cellsOf(policies []string) []cell {
	var out []cell
	for _, app := range workloads.SchedApps() {
		for _, p := range policies {
			out = append(out, cell{app.Name, p})
		}
	}
	return out
}

func (c cell) String() string { return c.app + "." + c.policy }

// counters are the gated simulation outputs of one cell.
type counters [5]uint64

func countersOf(p experiments.PolicyRun) counters {
	return counters{p.EMisses, p.ERefs, p.Cycles, p.Instrs, p.Dispatch}
}

// gateCells checks every cell of a pass against the reference counters.
func (r *run) gateCells(what string, cells []cell, got []experiments.PolicyRun, want []counters) {
	for i, c := range cells {
		ok := i < len(got) && i < len(want) && countersOf(got[i]) == want[i]
		var g counters
		if i < len(got) {
			g = countersOf(got[i])
		}
		r.check(ok, "%s: cell %s counters %v, want %v", what, c, g, want[min(i, len(want)-1)])
	}
}

// reference runs the grid once, untimed, and gates it against the
// pinned counters when the seed is the default one. It returns the
// counters every later pass must reproduce.
func (r *run) reference(g grid, cfg experiments.SchedConfig, cells []cell) ([]counters, error) {
	runs, err := g.pass(cfg)
	if err != nil {
		return nil, err
	}
	ref := make([]counters, len(runs))
	for i, p := range runs {
		ref[i] = countersOf(p)
	}
	if r.seed == defaultSeed {
		r.gateCells("pinned", cells, runs, pinned[g.name])
	}
	return ref, nil
}

// machineConfig is the platform RunSched builds for a cell.
func machineConfig(cpus int, topology string) (machine.Config, error) {
	topo, err := cachesim.ParseTopology(topology)
	if err != nil {
		return machine.Config{}, err
	}
	cfg := machine.UltraSPARC1()
	if cpus != 1 {
		cfg = machine.Enterprise5000(cpus)
	}
	cfg.Topology = topo
	return cfg, nil
}

// builtCell is one cell's machine and engine with its threads spawned,
// built with the calls experiments.RunSched makes.
type builtCell struct {
	m *machine.Machine
	e *rt.Engine
}

func buildCell(c cell, cfg experiments.SchedConfig, wrap func(platform.Platform) platform.Platform) (builtCell, error) {
	app, err := workloads.SchedAppByName(c.app)
	if err != nil {
		return builtCell{}, err
	}
	mcfg, err := machineConfig(cfg.CPUs, cfg.Topology)
	if err != nil {
		return builtCell{}, err
	}
	m := machine.New(mcfg)
	var p platform.Platform = sim.New(m)
	if wrap != nil {
		p = wrap(p)
	}
	e, err := rt.New(p, rt.Options{Policy: c.policy, Seed: cfg.Seed})
	if err != nil {
		return builtCell{}, fmt.Errorf("%s: %w", c, err)
	}
	app.Spawn(e, cfg.Scale)
	return builtCell{m, e}, nil
}

// discard unwinds a built cell's spawned threads without running them.
func (b builtCell) discard() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = b.e.Run(ctx) // a cancelled run stops before its first dispatch
}

// result reads a finished cell's counters exactly as RunSched does.
func (b builtCell) result(c cell, cfg experiments.SchedConfig) experiments.PolicyRun {
	refs, _, misses := b.m.Totals()
	snap := b.e.Snapshot()
	var idle uint64
	for _, ic := range snap.IdleCycles {
		idle += ic
	}
	return experiments.PolicyRun{
		App: c.app, Policy: c.policy, CPUs: cfg.CPUs,
		EMisses: misses, ERefs: refs, Cycles: b.m.MaxCycles(), Instrs: b.m.TotalInstrs(),
		Steals: snap.SchedOps.Steals, HeapOps: snap.SchedOps.Total(), Dispatch: snap.TotalDispatches(),
		IdleCycles: idle,
	}
}

// buildGrid times building every cell of the grid (machine, engine,
// spawned threads) without running any, from a collected heap as a fresh
// process would, and returns the seconds that took and the live memory
// the built grid holds per cell. It discards the grid and collects its
// garbage before returning, so the next timed pass starts from the same
// heap.
func buildGrid(cells []cell, cfg experiments.SchedConfig) (secs, kbPerCell float64, err error) {
	base := liveBytes()
	built := make([]builtCell, 0, len(cells))
	defer func() {
		for _, b := range built {
			b.discard()
		}
		runtime.GC()
	}()
	t0 := time.Now()
	for _, c := range cells {
		b, err := buildCell(c, cfg, nil)
		if err != nil {
			return 0, 0, err
		}
		built = append(built, b)
	}
	secs = time.Since(t0).Seconds()
	return secs, (liveBytes() - base) / 1024 / float64(len(cells)), nil
}

// minPasses is the fewest grid passes a timed figs run makes, so every
// cell's fast quantile rests on at least this many samples.
const minPasses = 10

// figsTimed is the end-to-end figs run: a reference pass, then passes
// until the window closes. Each pass first builds the whole grid without
// running it (one set-up sample), then runs the cells one after another
// with experiments.RunSched, exactly as the figure does with Jobs 1, so
// each cell is timed on its own. A pass's time is the sum over cells of
// each cell's fast quantile across passes, and set-up is the fast
// quantile of its samples (see fastQuantile); every pass must reproduce
// the reference counters.
func figsTimed(r *run, g grid) error {
	cfg := g.config(r.seed)
	cells := cellsOf(g.policies)
	ref, err := r.reference(g, cfg, cells)
	if err != nil {
		return err
	}
	var passInstrs uint64
	for _, c := range ref {
		passInstrs += c[3]
	}
	cellMS := make([][]float64, len(cells))
	var setupS, memKB []float64
	var allocated uint64
	passes := 0
	start := time.Now()
	for ; time.Since(start) < r.window || passes < minPasses; passes++ {
		secs, kb, err := buildGrid(cells, cfg)
		if err != nil {
			return err
		}
		setupS = append(setupS, secs)
		memKB = append(memKB, kb)
		alloc0 := totalAlloc()
		for i, c := range cells {
			t0 := time.Now()
			p, err := experiments.RunSched(c.app, c.policy, cfg)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			cellMS[i] = append(cellMS[i], ms(d))
			r.check(countersOf(p) == ref[i], "pass %d: cell %s counters %v, want %v", passes, c, countersOf(p), ref[i])
		}
		allocated += totalAlloc() - alloc0
	}
	var gridMS, medianMS float64
	for _, ts := range cellMS {
		gridMS += quantile(ts, fastQuantile)
		medianMS += median(ts)
	}
	r.set("setup_s", quantile(setupS, fastQuantile), "s")
	r.set("op_ms", gridMS, "ms")
	r.set("sim_minstr_per_s", float64(passInstrs)/gridMS/1e3, "Minstr/s")
	r.set("alloc_b_per_kinstr", float64(allocated)/(float64(passes)*float64(passInstrs)/1e3), "B/kinstr")
	r.extra["passes"] = passes
	r.extra["grid_ms_median_cells"] = medianMS
	r.extra["setup_s_median"] = median(setupS)
	r.extra["mem_kb_per_cell"] = median(memKB)
	cellTimes := map[string][]float64{}
	for i, c := range cells {
		cellTimes[c.String()] = cellMS[i]
	}
	r.extra["cell_ms"] = cellTimes
	return nil
}

// tracedPlatform decorates a platform (like platform/faulty does) and
// times every call into the machine layer. The engine and its thread
// goroutines hand control to each other synchronously, so calls never
// overlap and the counters need no locking.
type tracedPlatform struct {
	platform.Platform
	applyCalls, refs uint64
	applyNS, touchNS time.Duration
}

func (p *tracedPlatform) Apply(cpu int, tid mem.ThreadID, batch mem.Batch) uint64 {
	t0 := time.Now()
	n := p.Platform.Apply(cpu, tid, batch)
	p.applyNS += time.Since(t0)
	p.applyCalls++
	p.refs += uint64(batch.Refs())
	return n
}

func (p *tracedPlatform) TouchCode(cpu int, tid mem.ThreadID, code mem.Range) {
	t0 := time.Now()
	p.Platform.TouchCode(cpu, tid, code)
	p.touchNS += time.Since(t0)
}

// layerPass sums one traced pass over the grid, layer by layer.
type layerPass struct {
	run                       time.Duration
	apply, touch              time.Duration
	applyCalls, refs, emisses uint64
	steps, dispatches         uint64
	heapOps, steals, escapes  uint64
}

// tracedCell runs one cell through the timing decorator and returns
// the sum of its layer spans: building the cell (the experiments
// layer's own work), Engine.Run (machine calls plus rt's remainder) and
// reading the counters.
func tracedCell(c cell, cfg experiments.SchedConfig, lp *layerPass) (experiments.PolicyRun, time.Duration, error) {
	var tp *tracedPlatform
	t0 := time.Now()
	b, err := buildCell(c, cfg, func(p platform.Platform) platform.Platform {
		tp = &tracedPlatform{Platform: p}
		return tp
	})
	build := time.Since(t0)
	if err != nil {
		return experiments.PolicyRun{}, 0, err
	}
	t1 := time.Now()
	if err := b.e.Run(context.Background()); err != nil {
		return experiments.PolicyRun{}, 0, fmt.Errorf("%s: %w", c, err)
	}
	runD := time.Since(t1)
	t2 := time.Now()
	res := b.result(c, cfg)
	snap := b.e.Snapshot()
	collect := time.Since(t2)
	lp.run += runD
	lp.apply += tp.applyNS
	lp.touch += tp.touchNS
	lp.applyCalls += tp.applyCalls
	lp.refs += tp.refs
	lp.emisses += res.EMisses
	lp.steps += snap.Steps
	lp.dispatches += res.Dispatch
	lp.heapOps += res.HeapOps
	lp.steals += res.Steals
	lp.escapes += snap.Escapes
	return res, build + runD + collect, nil
}

// engineMatrix is the traced run's engine section, present in every
// workload's traced run: the five-policy matrix on the workload's
// topology, alternating untraced passes (experiments.RunSched, the
// cell_ms figures) with traced passes (the decorator, the layer
// figures) until budget is spent. Traced cells must reproduce
// RunSched's PolicyRun exactly.
func (r *run) engineMatrix(topology string, budget time.Duration) error {
	g := grid{topology: topology}
	cfg := g.config(r.seed)
	cells := cellsOf(experiments.SharedPolicies)
	cellMS := make([][]float64, len(cells))
	var (
		passes           []layerPass
		plainMS, traceMS []float64
		unattributed     []float64
		first            []experiments.PolicyRun
	)
	start := time.Now()
	for time.Since(start) < budget || len(passes) < 2 {
		plain := make([]experiments.PolicyRun, len(cells))
		t0 := time.Now()
		for i, c := range cells {
			c0 := time.Now()
			p, err := experiments.RunSched(c.app, c.policy, cfg)
			if err != nil {
				return err
			}
			cellMS[i] = append(cellMS[i], ms(time.Since(c0)))
			plain[i] = p
		}
		plainMS = append(plainMS, ms(time.Since(t0)))
		if first == nil {
			first = plain
		}
		for i, c := range cells {
			r.check(plain[i] == first[i], "cell %s changed between passes: %+v, first %+v", c, plain[i], first[i])
		}
		var lp layerPass
		t0 = time.Now()
		for i, c := range cells {
			c0 := time.Now()
			p, spans, err := tracedCell(c, cfg, &lp)
			if err != nil {
				return err
			}
			op := time.Since(c0)
			unattributed = append(unattributed, float64(op-spans)/float64(op))
			r.check(p == plain[i], "traced cell %s: %+v, RunSched gave %+v", c, p, plain[i])
		}
		traceMS = append(traceMS, ms(time.Since(t0)))
		passes = append(passes, lp)
	}
	for i, c := range cells {
		r.set("cell_ms."+c.String(), median(cellMS[i]), "ms")
	}
	pick := func(f func(lp layerPass) float64) float64 {
		var xs []float64
		for _, lp := range passes {
			xs = append(xs, f(lp))
		}
		return median(xs)
	}
	lp0 := passes[0]
	r.set("machine.apply_calls", float64(lp0.applyCalls), "count")
	r.set("machine.refs", float64(lp0.refs), "count")
	r.set("machine.emisses", float64(lp0.emisses), "count")
	r.set("machine.apply_ms", pick(func(lp layerPass) float64 { return ms(lp.apply) }), "ms")
	r.set("machine.touchcode_ms", pick(func(lp layerPass) float64 { return ms(lp.touch) }), "ms")
	r.set("machine.ns_per_ref", pick(func(lp layerPass) float64 { return float64(lp.apply) / float64(lp.refs) }), "ns")
	r.set("machine.share", pick(func(lp layerPass) float64 { return float64(lp.apply+lp.touch) / float64(lp.run) }), "frac")
	r.set("rt.self_ms", pick(func(lp layerPass) float64 { return ms(lp.run - lp.apply - lp.touch) }), "ms")
	r.set("rt.steps", float64(lp0.steps), "count")
	r.set("rt.dispatches", float64(lp0.dispatches), "count")
	r.set("rt.ns_per_dispatch", pick(func(lp layerPass) float64 {
		return float64(lp.run-lp.apply-lp.touch) / float64(lp.dispatches)
	}), "ns")
	r.set("sched.heap_ops", float64(lp0.heapOps), "count")
	r.set("sched.steals", float64(lp0.steals), "count")
	r.set("sched.escapes", float64(lp0.escapes), "count")
	r.extra["matrix_passes"] = len(passes)
	r.extra["matrix_plain_ms"] = plainMS
	r.extra["matrix_traced_ms"] = traceMS
	r.traceOverhead = median(traceMS)/median(plainMS) - 1
	r.figsUnattributed = median(unattributed)
	return nil
}

// figsTraced is a figs workload's traced run: most of the window goes
// to the engine matrix on the workload's topology, the rest to the
// layer probes every traced run shares.
func figsTraced(r *run, g grid) error {
	cfg := g.config(r.seed)
	cells := cellsOf(g.policies)
	if _, err := r.reference(g, cfg, cells); err != nil {
		return err
	}
	if err := r.engineMatrix(g.topology, r.window*6/10); err != nil {
		return err
	}
	return r.probes(nil)
}
