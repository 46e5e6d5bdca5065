// Package experiments implements one driver per table and figure of the
// paper's evaluation. Each driver returns a typed result whose Render
// method produces the rows/series the paper reports; cmd/repro prints
// them and bench_test.go regenerates them under `go test -bench`.
//
// The per-experiment index lives in DESIGN.md; the paper-vs-measured
// record lives in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/workloads"
)

// Policies are the scheduling policies of Section 5, baseline first.
var Policies = []string{"FCFS", "LFF", "CRT"}

// PolicyRun is the outcome of one application run under one policy.
type PolicyRun struct {
	App      string
	Policy   string
	CPUs     int
	EMisses  uint64
	ERefs    uint64
	Cycles   uint64
	Instrs   uint64
	Steals   uint64
	HeapOps  uint64
	Dispatch uint64
	// IdleCycles is the summed per-CPU idle time; utilization is
	// 1 − Idle/(Cycles·CPUs).
	IdleCycles uint64
}

// Utilization returns the machine utilization of the run in [0, 1].
func (r PolicyRun) Utilization() float64 {
	total := float64(r.Cycles) * float64(r.CPUs)
	if total == 0 {
		return 0
	}
	u := 1 - float64(r.IdleCycles)/total
	if u < 0 {
		return 0
	}
	return u
}

// MissRatio returns EMisses/ERefs.
func (r PolicyRun) MissRatio() float64 {
	if r.ERefs == 0 {
		return 0
	}
	return float64(r.EMisses) / float64(r.ERefs)
}

// SchedConfig parameterizes a Section 5 style run.
type SchedConfig struct {
	// CPUs selects the platform: 1 = Ultra-1 (42-cycle miss), >1 =
	// Enterprise 5000 (50/80-cycle miss).
	CPUs int
	// Scale shrinks the workload for fast runs; 1.0 reproduces the
	// paper's Table 4 parameters.
	Scale float64
	// Seed fixes all run randomness.
	Seed uint64
	// DisableAnnotations runs the annotation ablation.
	DisableAnnotations bool
	// InferSharing replaces user annotations with runtime inference
	// (the Section 7 extension).
	InferSharing bool
	// Threshold overrides the heap demotion threshold in lines (0 =
	// the runtime default).
	Threshold float64
	// SpawnStacks enables the work-first spawn-stack ablation.
	SpawnStacks bool
	// Jobs is the number of worker threads used to fan independent
	// cells (app × policy runs) of a multi-cell experiment across CPUs:
	// 0 uses every processor, 1 runs sequentially. Results are
	// bit-identical for any value — every cell owns its machine and
	// RNG stream and is collected by index (see internal/parallel).
	Jobs int
	// Obs, when non-nil, attaches an observability session: every cell
	// run registers an observer under a key derived purely from the
	// cell's configuration, so session exports are byte-identical for
	// any Jobs value.
	Obs *obs.Session
	// StallTimeout arms the engine's stall watchdog (see rt.Options).
	StallTimeout time.Duration
	// Topology selects the cache organisation ("" or "private-dm" for
	// the paper's private hierarchy; "shared-llc", "shared-assoc:W",
	// "shared-fa" for the shared variants — see cachesim.ParseTopology).
	Topology string
}

// cellKey names one run's observer cell. It must be a pure function of
// the run configuration (obs.Cell.Key documents why).
func (c SchedConfig) cellKey(app, policy string) string {
	key := fmt.Sprintf("%s/%s/%dcpu", app, policy, c.CPUs)
	if c.DisableAnnotations {
		key += "/noannot"
	}
	if c.InferSharing {
		key += "/infer"
	}
	if c.SpawnStacks {
		key += "/spawnstacks"
	}
	if topo, err := cachesim.ParseTopology(c.Topology); err == nil && topo.Shared() {
		key += "/" + topo.String()
	}
	return key
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// platform builds the machine for a CPU count and topology.
func platform(cpus int, topo cachesim.Topology) machine.Config {
	cfg := machine.UltraSPARC1()
	if cpus != 1 {
		cfg = machine.Enterprise5000(cpus)
	}
	cfg.Topology = topo
	return cfg
}

// RunSched executes one application under one policy and returns its
// counters. It is the primitive behind Figures 8 and 9, Table 5 and the
// annotation ablation.
func RunSched(appName, policy string, cfg SchedConfig) (PolicyRun, error) {
	cfg = cfg.withDefaults()
	app, err := workloads.SchedAppByName(appName)
	if err != nil {
		return PolicyRun{}, err
	}
	topo, err := cachesim.ParseTopology(cfg.Topology)
	if err != nil {
		return PolicyRun{}, fmt.Errorf("experiments: %s/%s/%dcpu: %w", appName, policy, cfg.CPUs, err)
	}
	m := machine.New(platform(cfg.CPUs, topo))
	e, err := rt.New(sim.New(m), rt.Options{
		Policy:             policy,
		Seed:               cfg.Seed,
		DisableAnnotations: cfg.DisableAnnotations,
		InferSharing:       cfg.InferSharing,
		ThresholdLines:     cfg.Threshold,
		SpawnStacks:        cfg.SpawnStacks,
		Obs:                cfg.Obs.Observer(cfg.cellKey(appName, policy), cfg.CPUs),
		StallTimeout:       cfg.StallTimeout,
	})
	if err != nil {
		return PolicyRun{}, fmt.Errorf("experiments: %s/%s/%dcpu: %w", appName, policy, cfg.CPUs, err)
	}
	app.Spawn(e, cfg.Scale)
	if err := e.Run(context.Background()); err != nil {
		return PolicyRun{}, fmt.Errorf("experiments: %s/%s/%dcpu: %w", appName, policy, cfg.CPUs, err)
	}
	refs, _, misses := m.Totals()
	snap := e.Snapshot()
	var idle uint64
	for _, ic := range snap.IdleCycles {
		idle += ic
	}
	return PolicyRun{
		App:        appName,
		Policy:     policy,
		CPUs:       cfg.CPUs,
		EMisses:    misses,
		ERefs:      refs,
		Cycles:     m.MaxCycles(),
		Instrs:     m.TotalInstrs(),
		Steals:     snap.SchedOps.Steals,
		HeapOps:    snap.SchedOps.Total(),
		Dispatch:   snap.TotalDispatches(),
		IdleCycles: idle,
	}, nil
}
