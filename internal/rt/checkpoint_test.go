package rt

// Tests for crash-safe checkpoint/restore: capture purity (enabling
// checkpoints never changes a run), the kill-resume differential
// (resuming from any checkpoint reproduces the uninterrupted run bit
// for bit, including telemetry and under injected counter faults), and
// the descriptive rejection of snapshots that do not belong to the
// run being resumed.

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/platform/faulty"
	"repro/internal/platform/sim"
	"repro/internal/snapshot"
)

// ckptWorkload spawns a deterministic multi-thread program exercising
// dispatch, blocking (locks, sleeps, joins), annotations, and enough
// virtual time to cross many checkpoint boundaries.
func ckptWorkload(e *Engine) {
	mu := NewMutex("m")
	worker := func(th *T) {
		r := th.Alloc(8192)
		for i := 0; i < 6; i++ {
			th.ReadRange(r.Base, 8192)
			th.Lock(mu)
			th.Compute(700)
			th.Unlock(mu)
			th.Yield()
		}
	}
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 6; i++ {
			kids = append(kids, th.Create("w", worker))
		}
		th.Share(kids[0], kids[1], 0.5)
		th.ShareWith(kids[2], 0.25)
		th.Sleep(3000)
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{Name: "main"})
}

// ckptEngine builds a 2-CPU engine with the given extra options
// applied on top of the workload's fixed policy and seed.
func ckptEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	return ckptEngineOn(t, sim.New(machine.New(machine.Enterprise5000(2))), opts)
}

func ckptEngineOn(t *testing.T, p platform.Platform, opts Options) *Engine {
	t.Helper()
	opts.Policy = "LFF"
	opts.Seed = 42
	e, err := New(p, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ckptWorkload(e)
	return e
}

func TestCheckpointCaptureIsPure(t *testing.T) {
	bare := ckptEngine(t, Options{})
	mustRun(t, bare)

	var n int
	ck := ckptEngine(t, Options{Checkpoint: CheckpointConfig{
		Every: 5000,
		OnCheckpoint: func(*snapshot.State) error {
			n++
			return nil
		},
	}})
	mustRun(t, ck)
	if n < 3 {
		t.Fatalf("only %d checkpoints; the workload is too short to test anything", n)
	}

	a, b := bare.Snapshot(), ck.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("checkpointing perturbed the run:\nbare: %+v\nckpt: %+v", a, b)
	}
	// The full captures agree too, once the writer-schedule metadata
	// (the only intended difference) is masked off.
	sa, sb := bare.CaptureState(), ck.CaptureState()
	sa.CheckpointEvery, sa.NextCheckpoint = sb.CheckpointEvery, sb.NextCheckpoint
	if err := snapshot.Diff(sa, sb); err != nil {
		t.Errorf("final captures diverge: %v", err)
	}
}

// runStraight runs a fresh engine to completion collecting every
// checkpoint, and returns the stored states plus the final capture.
func runStraight(t *testing.T, build func(Options) *Engine, every uint64) ([]*snapshot.State, *snapshot.State) {
	t.Helper()
	var states []*snapshot.State
	e := build(Options{Checkpoint: CheckpointConfig{
		Every: every,
		OnCheckpoint: func(st *snapshot.State) error {
			states = append(states, st)
			return nil
		},
	}})
	mustRun(t, e)
	if len(states) < 3 {
		t.Fatalf("only %d checkpoints written", len(states))
	}
	return states, e.CaptureState()
}

// resumeFrom re-executes the same workload from the stored snapshot
// and returns the checkpoints written after the resume point plus the
// final capture.
func resumeFrom(t *testing.T, build func(Options) *Engine, st *snapshot.State) ([]*snapshot.State, *snapshot.State) {
	t.Helper()
	var states []*snapshot.State
	e := build(Options{Checkpoint: CheckpointConfig{
		Resume: st,
		OnCheckpoint: func(s *snapshot.State) error {
			states = append(states, s)
			return nil
		},
	}})
	if !e.Resuming() {
		t.Fatal("engine not in fast-forward mode before Run")
	}
	mustRun(t, e)
	if e.Resuming() {
		t.Fatal("resume never verified")
	}
	return states, e.CaptureState()
}

// TestKillResumeByteIdentical is the core differential: a run killed
// at any checkpoint and resumed from the stored snapshot produces the
// same remaining checkpoints and the same final state, bit for bit,
// as the uninterrupted run.
func TestKillResumeByteIdentical(t *testing.T) {
	build := func(opts Options) *Engine { return ckptEngine(t, opts) }
	states, final := runStraight(t, build, 5000)

	for _, k := range []int{0, len(states) / 2, len(states) - 1} {
		rest, rfinal := resumeFrom(t, build, states[k])
		if want := states[k+1:]; len(rest) != len(want) {
			t.Fatalf("resume from #%d: %d later checkpoints, straight run wrote %d", k, len(rest), len(want))
		} else {
			for i := range rest {
				if !snapshot.Equal(rest[i], want[i]) {
					t.Errorf("resume from #%d: checkpoint %d diverges: %v",
						k, k+1+i, snapshot.Diff(want[i], rest[i]))
				}
			}
		}
		if !snapshot.Equal(final, rfinal) {
			t.Errorf("resume from #%d: final state diverges: %v", k, snapshot.Diff(final, rfinal))
		}
	}
}

// TestKillResumeWithObservability repeats the differential with full
// tracing and metrics attached: the resumed run's recorded telemetry
// digests identically, so exports are byte-identical too.
func TestKillResumeWithObservability(t *testing.T) {
	var straightObs, resumedObs *obs.Observer
	straight := func(opts Options) *Engine {
		straightObs = obs.New(2, obs.Options{Level: obs.Trace})
		opts.Obs = straightObs
		return ckptEngine(t, opts)
	}
	states, final := runStraight(t, straight, 5000)

	resumed := func(opts Options) *Engine {
		resumedObs = obs.New(2, obs.Options{Level: obs.Trace})
		opts.Obs = resumedObs
		return ckptEngine(t, opts)
	}
	_, rfinal := resumeFrom(t, resumed, states[1])
	if !snapshot.Equal(final, rfinal) {
		t.Fatalf("final state diverges: %v", snapshot.Diff(final, rfinal))
	}
	if a, b := straightObs.StateDigest(), resumedObs.StateDigest(); a != b {
		t.Errorf("telemetry digests diverge: straight %#x, resumed %#x", a, b)
	}
}

// TestKillResumeUnderFaults repeats the differential on the fault
// injection platform: corrupted counters are part of the simulated
// machine, so they replay deterministically too.
func TestKillResumeUnderFaults(t *testing.T) {
	cfg, err := faulty.ParseSpec("stuck=100@1000,spike=4096@3000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts Options) *Engine {
		f, err := faulty.New(sim.New(machine.New(machine.Enterprise5000(2))), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ckptEngineOn(t, f, opts)
	}
	states, final := runStraight(t, build, 5000)
	_, rfinal := resumeFrom(t, build, states[len(states)/2])
	if !snapshot.Equal(final, rfinal) {
		t.Errorf("final state under faults diverges: %v", snapshot.Diff(final, rfinal))
	}
}

// TestCheckpointFileRoundTrip drives the on-disk path the way atsimd
// does: OnCheckpoint writes each capture to a file, the file loads,
// and the loaded snapshot resumes.
func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	e := ckptEngine(t, Options{Checkpoint: CheckpointConfig{
		Every:        5000,
		OnCheckpoint: func(st *snapshot.State) error { return st.WriteFile(path) },
	}})
	mustRun(t, e)
	final := e.CaptureState()

	st, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	// The file holds the LAST checkpoint; resuming it (verify-only, no
	// new destination) must converge on the same final state.
	r := ckptEngine(t, Options{Checkpoint: CheckpointConfig{Resume: st}})
	mustRun(t, r)
	rfinal := r.CaptureState()
	final.CheckpointEvery, final.NextCheckpoint = rfinal.CheckpointEvery, rfinal.NextCheckpoint
	if err := snapshot.Diff(final, rfinal); err != nil {
		t.Errorf("resume from file diverges: %v", err)
	}
}

// TestResumeRejectsForeignSnapshots pins the descriptive errors for
// snapshots that do not belong to the engine being built.
func TestResumeRejectsForeignSnapshots(t *testing.T) {
	var states []*snapshot.State
	e := ckptEngine(t, Options{Checkpoint: CheckpointConfig{
		Every:  5000,
		Config: []snapshot.KV{{K: "app", V: "ckpt-test"}},
		OnCheckpoint: func(st *snapshot.State) error {
			states = append(states, st)
			return nil
		},
	}})
	mustRun(t, e)
	st := states[0]

	newWith := func(opts Options) error {
		if opts.Policy == "" {
			opts.Policy = "LFF"
		}
		opts.Seed = 42
		_, err := New(sim.New(machine.New(machine.Enterprise5000(2))), opts)
		return err
	}
	// Wrong seed.
	{
		o := Options{Checkpoint: CheckpointConfig{Resume: st, Config: st.Config}}
		o.Policy = "LFF"
		o.Seed = 99
		_, err := New(sim.New(machine.New(machine.Enterprise5000(2))), o)
		if err == nil || !strings.Contains(err.Error(), "seeded") {
			t.Errorf("wrong seed: err = %v", err)
		}
	}
	// Wrong policy.
	if err := newWith(Options{Policy: "FCFS", Checkpoint: CheckpointConfig{Resume: st, Config: st.Config}}); err == nil || !strings.Contains(err.Error(), "policy") {
		t.Errorf("wrong policy: err = %v", err)
	}
	// Wrong CPU count.
	{
		o := Options{Policy: "LFF", Seed: 42, Checkpoint: CheckpointConfig{Resume: st, Config: st.Config}}
		_, err := New(sim.New(machine.New(machine.Enterprise5000(4))), o)
		if err == nil || !strings.Contains(err.Error(), "CPUs") {
			t.Errorf("wrong ncpu: err = %v", err)
		}
	}
	// Wrong run config.
	if err := newWith(Options{Checkpoint: CheckpointConfig{Resume: st, Config: []snapshot.KV{{K: "app", V: "other"}}}}); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("wrong config: err = %v", err)
	}
	// Conflicting interval.
	if err := newWith(Options{Checkpoint: CheckpointConfig{Resume: st, Config: st.Config, Every: 1234, OnCheckpoint: func(*snapshot.State) error { return nil }}}); err == nil || !strings.Contains(err.Error(), "interval") {
		t.Errorf("conflicting interval: err = %v", err)
	}
	// Checkpointing with nowhere to write.
	if err := newWith(Options{Checkpoint: CheckpointConfig{Every: 100}}); err == nil || !strings.Contains(err.Error(), "no OnCheckpoint") {
		t.Errorf("no destination: err = %v", err)
	}
}

// TestResumeDetectsDivergence corrupts a stored snapshot in ways that
// survive the CRC (the in-memory receipt is mutated: the clock, or one
// section digest at a time) and checks the fast-forward verification
// catches each, naming the field or section.
func TestResumeDetectsDivergence(t *testing.T) {
	build := func(opts Options) *Engine { return ckptEngine(t, opts) }
	states, _ := runStraight(t, build, 5000)

	type mutation struct {
		name   string
		mutate func(*snapshot.State)
	}
	cases := []mutation{
		// Pretend the snapshot was taken one cycle later.
		{"Now", func(s *snapshot.State) { s.Now++ }},
	}
	for sec := snapshot.Section(0); sec < snapshot.NumSections; sec++ {
		cases = append(cases, mutation{"section " + sec.String(), func(s *snapshot.State) { s.Digests[sec] ^= 1 }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *states[1]
			tc.mutate(&bad)
			e := build(Options{Checkpoint: CheckpointConfig{Resume: &bad}})
			err := e.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), "resume verification failed") {
				t.Fatalf("err = %v, want resume verification failure", err)
			}
			if !strings.Contains(err.Error(), "snapshot: "+tc.name+" = ") {
				t.Fatalf("err = %v, want it to name %s", err, tc.name)
			}
		})
	}
}

// TestResumeCursorNeverReached: a snapshot claiming more steps than
// the workload has is reported, not silently ignored.
func TestResumeCursorNeverReached(t *testing.T) {
	build := func(opts Options) *Engine { return ckptEngine(t, opts) }
	states, _ := runStraight(t, build, 5000)

	bad := *states[0]
	bad.Steps = 1 << 40
	e := build(Options{Checkpoint: CheckpointConfig{Resume: &bad}})
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "step cursor") {
		t.Fatalf("err = %v, want step-cursor error", err)
	}
}
