package rt

// This file is the engine's consolidated accounting surface: Snapshot
// returns every view of a run's accounting in a single consistent copy
// and is what the facade, the experiment driver, the CLI and the
// observability exporters consume.

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Snapshot is one consistent copy of the engine's run accounting. All
// slices are copies; mutating them does not touch the engine.
type Snapshot struct {
	// Policy is the scheduling policy name ("FCFS", "LFF", "CRT", ...).
	Policy string
	// NCPU is the machine's processor count.
	NCPU int
	// Steps is the number of engine steps executed.
	Steps uint64
	// Dispatches is the per-CPU context-switch count.
	Dispatches []uint64
	// IdleCycles is the per-CPU cycles spent parked with nothing to
	// run.
	IdleCycles []uint64
	// Threads is the per-thread execution accounting for every thread
	// ever created, sorted by descending cycles (ties by ID).
	Threads []ThreadTime
	// Health is the per-CPU counter-health accounting (sanitizer
	// verdict counts and quarantine transitions).
	Health []stats.CounterHealth
	// SchedOps is the scheduler's data-structure work since its last
	// ResetOps.
	SchedOps sched.Ops
	// Escapes is the number of fairness-escape dispatches.
	Escapes uint64
}

// TotalDispatches sums the per-CPU dispatch counts.
func (s Snapshot) TotalDispatches() uint64 {
	var n uint64
	for _, d := range s.Dispatches {
		n += d
	}
	return n
}

// Snapshot returns the engine's consolidated run accounting. Valid at
// any point (mid-run it reflects the story so far); typically read
// after Run returns.
func (e *Engine) Snapshot() Snapshot {
	threads := make([]ThreadTime, 0, len(e.threads))
	for _, t := range e.threads {
		threads = append(threads, ThreadTime{ID: t.id, Name: t.name, Cycles: t.cycles, Dispatches: t.dispatchCount})
	}
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].Cycles != threads[j].Cycles {
			return threads[i].Cycles > threads[j].Cycles
		}
		return threads[i].ID < threads[j].ID
	})
	return Snapshot{
		Policy:     e.sched.PolicyName(),
		NCPU:       len(e.cpus),
		Steps:      e.steps,
		Dispatches: append([]uint64(nil), e.dispatches...),
		IdleCycles: append([]uint64(nil), e.idleCycles...),
		Threads:    threads,
		Health:     e.health.snapshot(),
		SchedOps:   e.sched.Ops(),
		Escapes:    e.sched.Escapes(),
	}
}

// obsHandles caches the engine's metric instruments. Registering once
// at engine construction keeps registry lookups out of every
// instrumented path: when metrics are off every handle is nil and each
// site costs one nil-check; when on, a counter bump is one atomic add
// on the CPU's shard.
type obsHandles struct {
	dispatches        *obs.Counter
	idleCycles        *obs.Counter
	cacheRefs         *obs.Counter
	cacheHits         *obs.Counter
	intervalsOK       *obs.Counter
	intervalsSuspect  *obs.Counter
	intervalsRejected *obs.Counter
	quarantines       *obs.Counter
	recoveries        *obs.Counter
	stalls            *obs.Counter
	waitCycles        *obs.Histogram
	runCycles         *obs.Histogram
	runMisses         *obs.Histogram
}

// init registers the engine's metrics on o's registry (no-op when
// metrics are off, leaving every handle nil).
func (h *obsHandles) init(o *obs.Observer) {
	if !o.MetricsOn() {
		return
	}
	r := o.Registry()
	h.dispatches = r.Counter("rt_dispatches_total")
	h.idleCycles = r.Counter("rt_idle_cycles_total")
	h.cacheRefs = r.Counter("cache_refs_total")
	h.cacheHits = r.Counter("cache_hits_total")
	h.intervalsOK = r.Counter("rt_intervals_ok_total")
	h.intervalsSuspect = r.Counter("rt_intervals_suspect_total")
	h.intervalsRejected = r.Counter("rt_intervals_rejected_total")
	h.quarantines = r.Counter("rt_quarantines_total")
	h.recoveries = r.Counter("rt_recoveries_total")
	h.stalls = r.Counter("rt_stalls_total")
	h.waitCycles = r.Histogram("rt_dispatch_wait_cycles",
		[]float64{64, 256, 1024, 4096, 16384, 65536, 262144})
	h.runCycles = r.Histogram("rt_interval_cycles",
		[]float64{256, 1024, 4096, 16384, 65536, 262144, 1048576})
	h.runMisses = r.Histogram("rt_interval_misses",
		[]float64{1, 8, 64, 512, 4096, 32768})
}
