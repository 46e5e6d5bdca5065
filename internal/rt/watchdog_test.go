package rt

// Stall watchdog tests: a workload spinning through engine steps
// without ever dispatching is detected within roughly two timeout
// windows and aborted with a diagnostic dump, while a healthy run is
// never disturbed by an armed watchdog.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/platform/sim"
	"repro/internal/snapshot"
)

func TestWatchdogCatchesStepSpin(t *testing.T) {
	testWatchdogCatchesStepSpin(t, CheckpointConfig{})
}

// TestWatchdogCatchesStepSpinAcrossBoundaries: crossing a checkpoint
// boundary pauses the clock but is not progress, so a spinner that
// crosses one every thousand cycles is still caught.
func TestWatchdogCatchesStepSpinAcrossBoundaries(t *testing.T) {
	testWatchdogCatchesStepSpin(t, CheckpointConfig{
		Every:        1000,
		OnCheckpoint: func(*snapshot.State) error { return nil },
	})
}

func testWatchdogCatchesStepSpin(t *testing.T, ck CheckpointConfig) {
	o := obs.New(1, obs.Options{Level: obs.Trace})
	e, err := New(sim.New(machine.New(machine.UltraSPARC1())),
		Options{Policy: "FCFS", Seed: 1, StallTimeout: 25 * time.Millisecond, Obs: o,
			Checkpoint: ck})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Spawn(func(th *T) {
		// A thread computing forever: the engine keeps stepping it (so
		// MaxSteps is the only other way out, at 4e9 steps) but never
		// dispatches anything again after the first install.
		for {
			th.Compute(1)
		}
	}, SpawnOpts{Name: "spinner"})
	// A blocked bystander so the diagnostic dump has someone to list.
	e.Spawn(func(th *T) { th.Sleep(1 << 40) }, SpawnOpts{Name: "sleeper"})

	// The deadline turns a watchdog that never trips into a failure
	// instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = e.Run(ctx)
	if err == nil {
		t.Fatal("run of an infinite spinner returned nil")
	}
	msg := err.Error()
	for _, want := range []string{"rt: stalled", "no dispatch", "running", "blocked", "timers pending"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall error %q lacks %q", msg, want)
		}
	}
	// The abort is observable: the metric bumped and the event traced.
	var stalls uint64
	for _, c := range o.Registry().Snapshot().Counters {
		if c.Name == "rt_stalls_total" {
			for _, v := range c.PerCPU {
				stalls += v
			}
		}
	}
	if stalls != 1 {
		t.Errorf("rt_stalls_total = %d, want 1", stalls)
	}
	found := false
	for _, ev := range o.Ring(0).Events() {
		if ev.Kind == obs.KStall {
			found = true
		}
	}
	if !found {
		t.Error("no KStall event recorded")
	}
	// The partial state of the aborted run is still snapshottable.
	if st := e.CaptureState(); st == nil || st.Steps == 0 {
		t.Error("aborted run not capturable")
	}
}

func TestWatchdogSilentOnHealthyRun(t *testing.T) {
	e, err := New(sim.New(machine.New(machine.Enterprise5000(2))),
		Options{Policy: "LFF", Seed: 42, StallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ckptWorkload(e)
	mustRun(t, e)

	// And the armed watchdog changed nothing: wall time never touches
	// the simulation.
	bare, err := New(sim.New(machine.New(machine.Enterprise5000(2))),
		Options{Policy: "LFF", Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ckptWorkload(bare)
	mustRun(t, bare)
	if err := snapshot.Diff(bare.CaptureState(), e.CaptureState()); err != nil {
		t.Errorf("watchdog perturbed the run: %v", err)
	}
}

// TestWatchdogStopsWhileParked: a host that parks the engine inside
// OnCheckpoint for several timeouts is waiting, not stalled.
func TestWatchdogStopsWhileParked(t *testing.T) {
	parks := 0
	e, err := New(sim.New(machine.New(machine.Enterprise5000(2))),
		Options{Policy: "LFF", Seed: 42, StallTimeout: 20 * time.Millisecond,
			Checkpoint: CheckpointConfig{Every: 1000, OnCheckpoint: func(*snapshot.State) error {
				if parks < 2 {
					parks++
					time.Sleep(100 * time.Millisecond)
				}
				return nil
			}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ckptWorkload(e)
	mustRun(t, e)
	if parks != 2 {
		t.Fatalf("parked %d times, want 2 (workload crosses too few boundaries)", parks)
	}
}

func TestNegativeStallTimeoutRejected(t *testing.T) {
	_, err := New(sim.New(machine.New(machine.UltraSPARC1())),
		Options{StallTimeout: -time.Second})
	if err == nil || !strings.Contains(err.Error(), "negative stall timeout") {
		t.Fatalf("err = %v", err)
	}
}
