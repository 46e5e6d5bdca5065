package rt

// Context cancellation tests: Run observes a cancelled context within
// one scheduling interval (every dispatch re-checks, plus the
// periodic step check), and the partial state of a cancelled run is
// still snapshottable — the property atsimd's eviction and
// crash recovery rest on.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/platform/sim"
)

func TestCancelObservedAtDispatch(t *testing.T) {
	e, err := New(sim.New(machine.New(machine.Enterprise5000(2))),
		Options{Policy: "LFF", Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	dispatched := 0
	e.Spawn(func(th *T) {
		for i := 0; i < 64; i++ {
			k := th.Create("w", func(c *T) {
				dispatched++
				cancel() // first worker to run pulls the plug
				c.Compute(100)
			})
			th.Join(k)
		}
	}, SpawnOpts{Name: "main"})

	err = e.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error %q does not say the run was cancelled", err)
	}
	// The cancel was seen promptly: after the worker that called
	// cancel, at most a handful of threads (already mid-flight on the
	// other CPU, or released by the 1024-step fallback) ran — not the
	// remaining dozens.
	if dispatched > 4 {
		t.Errorf("%d workers ran after cancellation, want prompt stop", dispatched)
	}

	// The interrupted run's partial state still captures cleanly.
	st := e.CaptureState()
	if st.Steps == 0 {
		t.Errorf("partial capture implausible: steps=%d", st.Steps)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Errorf("partial capture does not encode: %v", err)
	}
}

func TestCancelBeforeRun(t *testing.T) {
	e, err := New(sim.New(machine.New(machine.UltraSPARC1())),
		Options{Policy: "FCFS", Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ran := false
	e.Spawn(func(th *T) {
		for i := 0; i < 100000; i++ {
			th.Compute(10)
			th.Yield()
		}
		ran = true
	}, SpawnOpts{Name: "w"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("workload ran to completion under a pre-cancelled context")
	}
}
