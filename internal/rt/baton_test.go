package rt_test

// Baton tests: the run loop passes between thread goroutines, so a
// goroutine switch happens only on a change of thread (Snapshot's
// Handoffs), engine panics on a thread goroutine reach Run's caller,
// and every exit path leaves no goroutine behind. Run them under
// -race: each baton pass is the happens-before edge between the
// goroutine giving up engine state and the one taking it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func batonEngine(t *testing.T, cpus int, opts rt.Options) *rt.Engine {
	t.Helper()
	cfg := machine.UltraSPARC1()
	if cpus > 1 {
		cfg = machine.Enterprise5000(cpus)
	}
	if opts.Policy == "" {
		opts.Policy = "FCFS"
	}
	e, err := rt.New(sim.New(machine.New(cfg)), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestBatonComputeOnlyOneHandoff(t *testing.T) {
	e := batonEngine(t, 1, rt.Options{})
	e.Spawn(func(th *rt.T) {
		r := th.Alloc(4096)
		for i := 0; i < 200; i++ {
			th.ReadRange(r.Base, 4096)
			th.Compute(500)
		}
	}, rt.SpawnOpts{Name: "solo"})
	if err := e.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Run hands the baton to the thread once; every later step is a
	// repeat step the thread takes on its own goroutine.
	s := e.Snapshot()
	if s.Handoffs != 1 {
		t.Errorf("Handoffs = %d over %d steps, want 1", s.Handoffs, s.Steps)
	}
	if s.Steps < 400 {
		t.Errorf("Steps = %d, want at least one per request (401)", s.Steps)
	}
}

func TestBatonYieldPingPong(t *testing.T) {
	for _, k := range []int{1, 10, 100} {
		e := batonEngine(t, 1, rt.Options{})
		pong := func(th *rt.T) {
			for i := 0; i < k; i++ {
				th.Compute(100)
				th.Yield()
			}
		}
		e.Spawn(pong, rt.SpawnOpts{Name: "ping"})
		e.Spawn(pong, rt.SpawnOpts{Name: "pong"})
		if err := e.Run(context.Background()); err != nil {
			t.Fatalf("k=%d: Run: %v", k, err)
		}
		// One handoff per yield (2k), plus Run's opening pass to ping
		// and ping's exit passing to pong; pong's exit returns the
		// baton to Run, which is not a thread switch.
		if got, want := e.Snapshot().Handoffs, uint64(2*k+2); got != want {
			t.Errorf("k=%d: Handoffs = %d, want %d", k, got, want)
		}
	}
}

func TestBatonHandoffsBoundedBySteps(t *testing.T) {
	for _, app := range workloads.SchedApps() {
		for _, cpus := range []int{1, 8} {
			run := func() rt.Snapshot {
				e := batonEngine(t, cpus, rt.Options{Policy: "LFF", Seed: 7})
				app.Spawn(e, 0.05)
				if err := e.Run(context.Background()); err != nil {
					t.Fatalf("%s/%dcpu: Run: %v", app.Name, cpus, err)
				}
				return e.Snapshot()
			}
			s := run()
			if s.Handoffs == 0 || s.Handoffs > s.Steps {
				t.Errorf("%s/%dcpu: Handoffs = %d, Steps = %d; want 0 < Handoffs <= Steps",
					app.Name, cpus, s.Handoffs, s.Steps)
			}
			if again := run(); again.Handoffs != s.Handoffs || again.Steps != s.Steps {
				t.Errorf("%s/%dcpu: rerun gave Handoffs %d, Steps %d; first run %d, %d",
					app.Name, cpus, again.Handoffs, again.Steps, s.Handoffs, s.Steps)
			}
		}
	}
}

// batonWorkload spawns a small fork/join program whose children yield
// and lock, so a run crosses many thread changes and checkpoints.
func batonWorkload(e *rt.Engine, body func(th *rt.T)) {
	mu := rt.NewMutex("m")
	e.Spawn(func(th *rt.T) {
		var kids []mem.ThreadID
		for i := 0; i < 6; i++ {
			kids = append(kids, th.Create("w", func(c *rt.T) {
				for j := 0; j < 20; j++ {
					c.Compute(300)
					c.Lock(mu)
					c.Compute(50)
					c.Unlock(mu)
					c.Yield()
				}
				if body != nil {
					body(c)
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, rt.SpawnOpts{Name: "main"})
}

// runRecovering runs e and returns the value Run panicked with, if
// any, and Run's error.
func runRecovering(ctx context.Context, e *rt.Engine) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, e.Run(ctx)
}

func TestBatonCheckpointPanicReachesCaller(t *testing.T) {
	boundaries := 0
	e := batonEngine(t, 2, rt.Options{Checkpoint: rt.CheckpointConfig{
		Every: 2000,
		OnCheckpoint: func(*snapshot.State) error {
			if boundaries++; boundaries == 3 {
				panic("checkpoint callback exploded")
			}
			return nil
		},
	}})
	batonWorkload(e, nil)
	r, err := runRecovering(context.Background(), e)
	if r == nil {
		t.Fatalf("Run returned %v, want a re-raised panic", err)
	}
	if got := fmt.Sprintf("%v", r); got != "checkpoint callback exploded" {
		t.Errorf("recovered %%v = %q, want the original panic text", got)
	}
	ep, ok := r.(*rt.EnginePanic)
	if !ok {
		t.Fatalf("recovered %T, want *rt.EnginePanic", r)
	}
	// The stack is the thread goroutine's, where the callback ran.
	if st := string(ep.Stack); !strings.Contains(st, "TestBatonCheckpointPanicReachesCaller") ||
		!strings.Contains(st, "rt.(*T).call") {
		t.Errorf("EnginePanic.Stack does not show the callback on a thread goroutine:\n%s", st)
	}
}

func TestBatonThreadPanicStillAnError(t *testing.T) {
	e := batonEngine(t, 2, rt.Options{})
	batonWorkload(e, func(c *rt.T) {
		if c.ID() == 3 {
			panic("thread body exploded")
		}
	})
	r, err := runRecovering(context.Background(), e)
	if r != nil {
		t.Fatalf("Run panicked with %v, want an error", r)
	}
	if err == nil || !strings.Contains(err.Error(), "panicked: thread body exploded") {
		t.Errorf("Run = %v, want the thread's panicked error", err)
	}
}

func TestBatonLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *rt.Engine, cancel context.CancelFunc)
		check func(t *testing.T, err error, r any)
	}{
		{"completion", func(e *rt.Engine, _ context.CancelFunc) { batonWorkload(e, nil) },
			func(t *testing.T, err error, r any) {
				if err != nil || r != nil {
					t.Errorf("Run = %v, panic %v; want success", err, r)
				}
			}},
		{"error", func(e *rt.Engine, _ context.CancelFunc) {
			batonWorkload(e, func(c *rt.T) {
				if c.ID() == 4 {
					c.Unlock(rt.NewMutex("never held"))
				}
			})
		}, func(t *testing.T, err error, r any) {
			if err == nil || !strings.Contains(err.Error(), "Unlock of a mutex not held") {
				t.Errorf("Run = %v, panic %v; want the misuse error", err, r)
			}
		}},
		{"cancel", func(e *rt.Engine, cancel context.CancelFunc) {
			batonWorkload(e, func(c *rt.T) { cancel() })
		}, func(t *testing.T, err error, r any) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Run = %v, panic %v; want context.Canceled", err, r)
			}
		}},
		{"panic", func(e *rt.Engine, _ context.CancelFunc) {
			dispatches := 0
			e.OnDispatch = func(int, mem.ThreadID, string) {
				if dispatches++; dispatches == 5 {
					panic("dispatch hook exploded")
				}
			}
			batonWorkload(e, nil)
		}, func(t *testing.T, err error, r any) {
			if fmt.Sprint(r) != "dispatch hook exploded" {
				t.Errorf("Run = %v, panic %v; want the re-raised hook panic", err, r)
			}
		}},
		{"deferred call at teardown", func(e *rt.Engine, _ context.CancelFunc) {
			// A thread killed while parked unwinds through its deferred
			// Unlock; that call must not run the engine again.
			mu := rt.NewMutex("held")
			e.Spawn(func(th *rt.T) {
				th.Lock(mu)
				defer th.Unlock(mu)
				th.Sleep(1 << 40)
			}, rt.SpawnOpts{Name: "holder"})
			e.Spawn(func(th *rt.T) {
				th.Compute(1000)
				th.Unlock(rt.NewMutex("never held"))
			}, rt.SpawnOpts{Name: "misuser"})
		}, func(t *testing.T, err error, r any) {
			if err == nil || !strings.Contains(err.Error(), "Unlock of a mutex not held") {
				t.Errorf("Run = %v, panic %v; want the misuse error", err, r)
			}
		}},
		{"panic at exit", func(e *rt.Engine, _ context.CancelFunc) {
			// The hook panics in the exit request's interval record,
			// before the engine marks the thread dead; its goroutine
			// returns instead of parking, and teardown must not wait
			// for it.
			exiting := map[mem.ThreadID]bool{}
			e.OnEvent = func(ev trace.Event) {
				if ev.Kind == trace.EvInterval && exiting[ev.Interval.Thread] {
					panic("exit hook exploded")
				}
			}
			batonWorkload(e, func(c *rt.T) { exiting[c.ID()] = true })
		}, func(t *testing.T, err error, r any) {
			if fmt.Sprint(r) != "exit hook exploded" {
				t.Errorf("Run = %v, panic %v; want the re-raised hook panic", err, r)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := batonEngine(t, 2, rt.Options{})
			tc.setup(e, cancel)
			r, err := runRecovering(ctx, e)
			tc.check(t, err, r)
			// Killed threads unwind on their own goroutines after Run
			// returns; give them a moment.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}
