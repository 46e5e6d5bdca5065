package rt

// Crash safety. A checkpoint is a receipt for the engine's state at a
// virtual-cycle boundary — run identity, step cursor and clock, an obs
// digest, and one digest per state section (engine scalars, per-CPU
// clocks/counters, timers, thread table, scheduler footprints and
// queues, sharing graph, sanitizer state) — written atomically to disk
// on a fixed virtual-cycle schedule.
//
// Resume works by verified deterministic fast-forward. Thread bodies
// live on Go goroutine stacks, which cannot be serialized; what CAN be
// relied on is that the engine is a sequential deterministic
// simulation, so re-executing the same workload reproduces the same
// state. A resumed engine therefore runs the workload from step 0
// with checkpoint writing suppressed; when it reaches the snapshot's
// step cursor it seals its live state and compares the receipts: the
// cursor and identity fields by value, every state section by digest.
// A match proves the resumed run IS the interrupted run — every
// subsequent golden, trace and export is byte-identical to an
// uninterrupted run's by construction — and checkpoint writing then
// continues on the original boundary schedule. Any divergence
// (different binary, flags, seed, or a corrupted file that still
// passed its CRC) aborts, naming the divergent field or section,
// instead of silently producing different results. The capture itself
// is read-only, so enabling checkpoints never perturbs a run: goldens
// with and without -checkpoint-every are identical, which is also
// what makes the fast-forward exact.

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/snapshot"
)

// CheckpointConfig wires crash-safe checkpointing into an engine.
type CheckpointConfig struct {
	// Every is the checkpoint interval in virtual cycles; 0 disables
	// checkpoint writing (a Resume-only engine verifies and continues
	// without writing new checkpoints unless the snapshot carries an
	// interval and a destination is set).
	Every uint64
	// Path is the snapshot file, rewritten atomically at every
	// boundary (a kill at any instant leaves the previous complete
	// snapshot or the new one).
	Path string
	// Config is the runner-level run configuration (app, scale, fault
	// spec, ...), recorded in every snapshot and compared on resume so
	// a snapshot cannot be applied to a differently-configured run.
	// Order is irrelevant; the engine canonicalizes by key.
	Config []snapshot.KV
	// Resume is a previously written snapshot to resume from. The
	// engine re-executes deterministically to the snapshot's step
	// cursor, verifies bit-exact agreement, and continues.
	Resume *snapshot.State
	// OnCheckpoint, when non-nil, observes every checkpoint capture
	// after it is written (the soak harness prints boundary markers
	// from it). Returning an error aborts the run. It must not call
	// back into the engine.
	OnCheckpoint func(*snapshot.State) error
}

// ckptState is the engine's internal checkpoint cursor.
type ckptState struct {
	every   uint64
	next    uint64
	path    string
	config  []snapshot.KV
	onWrite func(*snapshot.State) error
	// resume holds the snapshot awaiting fast-forward verification;
	// nil once verified (or when not resuming). While non-nil no
	// checkpoint is written: the boundaries being replayed were
	// already written by the interrupted run.
	resume *snapshot.State
}

// initCheckpoint validates cfg against the engine under construction
// and installs the cursor. Called from New after the scheduler exists
// (the policy name check needs it).
func (e *Engine) initCheckpoint(cfg CheckpointConfig) error {
	c := ckptState{
		every:   cfg.Every,
		path:    cfg.Path,
		onWrite: cfg.OnCheckpoint,
		resume:  cfg.Resume,
		config:  append([]snapshot.KV(nil), cfg.Config...),
	}
	sort.Slice(c.config, func(i, j int) bool { return c.config[i].K < c.config[j].K })
	hasDest := c.path != "" || c.onWrite != nil
	if r := cfg.Resume; r != nil {
		if cfg.Every != 0 && cfg.Every != r.CheckpointEvery {
			return fmt.Errorf("rt: resume with checkpoint interval %d, but the snapshot was written every %d cycles — the boundary schedules would diverge", cfg.Every, r.CheckpointEvery)
		}
		if c.every == 0 && hasDest {
			c.every = r.CheckpointEvery
		}
		if got, want := e.sched.PolicyName(), r.Policy; got != want {
			return fmt.Errorf("rt: resume snapshot is for policy %q, engine runs %q", want, got)
		}
		if got, want := len(e.cpus), int(r.NCPU); got != want {
			return fmt.Errorf("rt: resume snapshot is for %d CPUs, platform has %d", want, got)
		}
		if got, want := int64(e.plat.CacheLines()), r.CacheLines; got != want {
			return fmt.Errorf("rt: resume snapshot is for a %d-line cache, platform has %d", want, got)
		}
		if got, want := e.opts.Seed, r.Seed; got != want {
			return fmt.Errorf("rt: resume snapshot was seeded %d, engine is seeded %d", want, got)
		}
		if err := snapshot.SameConfig(r.Config, c.config); err != nil {
			return fmt.Errorf("rt: resume snapshot was written under another run config: %w", err)
		}
		c.next = r.NextCheckpoint
	} else {
		c.next = c.every // first boundary one interval in
	}
	if c.every > 0 && !hasDest {
		return fmt.Errorf("rt: checkpointing every %d cycles with neither a path nor an OnCheckpoint callback", c.every)
	}
	e.ckpt = c
	return nil
}

// Resuming reports whether the engine is still fast-forwarding toward
// an unverified resume snapshot.
func (e *Engine) Resuming() bool { return e.ckpt.resume != nil }

// CaptureState captures the engine's state as a sealed snapshot
// receipt. It is strictly read-only — capturing never perturbs the run
// — and valid at any engine-loop boundary, including after a cancelled
// run (the partial state of an interrupted run is itself
// snapshottable).
func (e *Engine) CaptureState() *snapshot.State {
	st := &snapshot.State{
		Config:          append([]snapshot.KV(nil), e.ckpt.config...),
		Policy:          e.sched.PolicyName(),
		NCPU:            int32(len(e.cpus)),
		CacheLines:      int64(e.plat.CacheLines()),
		Seed:            e.opts.Seed,
		CheckpointEvery: e.ckpt.every,
		NextCheckpoint:  e.ckpt.next,
		Steps:           e.steps,
		Now:             e.now,
		ObsDigest:       e.obs.StateDigest(),
	}
	c := snapshot.Capture{
		NextID:    int64(e.nextID),
		Live:      int32(e.live),
		TimerSeq:  e.timerSeq,
		EngineRNG: e.rng.State(),
		Sched:     e.sched.ExportState(),
	}
	for p, cpu := range e.cpus {
		snap := cpu.ReadCounters()
		cs := snapshot.CPUState{
			Clock: cpu.Cycles(), Misses: cpu.Misses(),
			Refs: snap.Refs, Hits: snap.Hits,
			BaseRefs: e.picBase[p].Refs, BaseHits: e.picBase[p].Hits,
			Idle: e.idleCycles[p], Dispatches: e.dispatches[p],
			Parked: e.parked[p], Running: -1,
		}
		if t := e.running[p]; t != nil {
			cs.Running = int64(t.id)
		}
		c.CPUs = append(c.CPUs, cs)
	}
	for _, tm := range e.timers {
		c.Timers = append(c.Timers, snapshot.TimerState{
			WakeAt: tm.wakeAt, Seq: tm.seq, Thread: int64(tm.tid),
		})
	}
	ids := make([]int, 0, len(e.threads))
	for id := range e.threads {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := e.threads[mem.ThreadID(id)]
		ts := snapshot.ThreadState{
			ID: int64(t.id), Name: t.name, Status: uint8(t.status),
			BlockedOn: t.blockedOn, CPU: int32(t.cpu), Cycles: t.cycles,
			DispatchClock: t.dispatchClock, DispatchCount: t.dispatchCount,
			DispatchMisses: t.dispatchMisses, ReadyClock: t.readyClock,
			RNG: t.rng.State(),
		}
		for _, j := range t.joiners {
			ts.Joiners = append(ts.Joiners, int64(j.id))
		}
		c.Threads = append(c.Threads, ts)
	}
	for _, edge := range e.graph.Export() {
		c.Graph = append(c.Graph, snapshot.GraphEdge{
			From: int64(edge.From), To: int64(edge.To), Q: edge.Q,
		})
	}
	for i := range e.health.cpus {
		h := &e.health.cpus[i]
		c.Health = append(c.Health, snapshot.HealthState{
			OK: h.OK, Suspect: h.Suspect, Rejected: h.Rejected,
			Quarantines: h.Quarantines, Recoveries: h.Recoveries,
			StreakRejected: int64(h.StreakRejected), StreakClean: int64(h.StreakClean),
			Frozen: int64(h.frozen), Quarantined: h.Quarantined,
		})
	}
	if e.mdl != nil {
		c.ModelFLOPs = e.mdl.FLOPs()
	}
	st.Seal(&c)
	return st
}

// writeCheckpoint advances the boundary cursor and writes the capture.
// Called from the run loop when e.now crosses the pending boundary.
// The cursor moves first so the stored NextCheckpoint names the
// boundary a resumed run must write next.
func (e *Engine) writeCheckpoint() error {
	e.ckpt.next = (e.now/e.ckpt.every + 1) * e.ckpt.every
	st := e.CaptureState()
	if e.ckpt.path != "" {
		if err := st.WriteFile(e.ckpt.path); err != nil {
			return fmt.Errorf("rt: checkpoint at cycle %d: %w", e.now, err)
		}
	}
	if e.ckpt.onWrite != nil {
		if err := e.ckpt.onWrite(st); err != nil {
			return fmt.Errorf("rt: checkpoint callback at cycle %d: %w", e.now, err)
		}
	}
	return nil
}

// verifyResume compares the live fast-forwarded state against the
// resume snapshot at its step cursor. On a match the engine leaves
// fast-forward mode and checkpoint writing resumes on the stored
// boundary schedule.
func (e *Engine) verifyResume() error {
	stored := e.ckpt.resume
	live := e.CaptureState()
	// The boundary schedule is metadata of the *writing* run, not
	// simulation state: a verify-only resume (no destination, Every 0)
	// must still match a snapshot written with checkpointing on.
	live.CheckpointEvery = stored.CheckpointEvery
	live.NextCheckpoint = stored.NextCheckpoint
	if err := snapshot.Diff(stored, live); err != nil {
		return fmt.Errorf("rt: resume verification failed at step %d (cycle %d): the re-executed run diverged from the snapshot — different binary, workload, flags, or a corrupted snapshot: %w",
			e.steps, e.now, err)
	}
	e.ckpt.resume = nil
	return nil
}
