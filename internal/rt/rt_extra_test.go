package rt

import (
	"context"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/platform/sim"
)

// TestMutexBarging: a running thread grabs a freed lock ahead of a
// woken waiter; the waiter re-blocks and still eventually acquires
// (no lost wakeups, no starvation in a finite program).
func TestMutexBarging(t *testing.T) {
	e := newEngine(t, 2, "FCFS")
	mu := NewMutex("m")
	acquisitions := 0
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 6; i++ {
			kids = append(kids, th.Create("w", func(c *T) {
				for r := 0; r < 10; r++ {
					c.Lock(mu)
					acquisitions++
					c.Compute(200)
					c.Unlock(mu)
					c.Compute(100)
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if acquisitions != 60 {
		t.Errorf("acquisitions = %d, want 60", acquisitions)
	}
	if mu.Locked() {
		t.Error("mutex left held")
	}
}

// TestRetryLockReblock drives the dispatch-time re-block path: with
// heavy contention on a short critical section, some woken waiters must
// find the lock barged and re-block without running.
func TestRetryLockReblock(t *testing.T) {
	e := newEngine(t, 4, "LFF")
	mu := NewMutex("hot")
	counter := 0
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 16; i++ {
			kids = append(kids, th.Create("w", func(c *T) {
				for r := 0; r < 25; r++ {
					c.Lock(mu)
					counter++
					c.Unlock(mu)
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if counter != 400 {
		t.Errorf("critical sections = %d, want 400", counter)
	}
}

// TestFairnessLimitViaOptions: with a fairness limit, a cold compute
// thread completes even while hot cache-heavy threads keep the heap
// busy.
func TestFairnessLimitViaOptions(t *testing.T) {
	m := machine.New(machine.UltraSPARC1())
	e, err := New(sim.New(m), Options{Policy: "LFF", Seed: 1, FairnessLimit: 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	coldRan := false
	e.Spawn(func(th *T) {
		state := th.Alloc(4096 * 64)
		hot := th.Create("hot", func(c *T) {
			for i := 0; i < 50; i++ {
				c.Touch(state)
				c.Yield()
			}
		})
		cold := th.Create("cold", func(c *T) {
			c.Compute(10)
			coldRan = true
		})
		th.Join(cold)
		th.Join(hot)
	}, SpawnOpts{})
	mustRun(t, e)
	if !coldRan {
		t.Fatal("cold thread never ran")
	}
}

// TestInferSharingBuildsGraph: with inference on and no annotations,
// co-accessing threads end up connected in the dependency graph.
func TestInferSharingBuildsGraph(t *testing.T) {
	// FCFS so the yielding readers alternate (LFF would rightly run
	// the hot reader to completion); the subject here is the monitor.
	m := machine.New(machine.UltraSPARC1())
	e, err := New(sim.New(m), Options{Policy: "FCFS", Seed: 1, DisableAnnotations: true, InferSharing: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sawEdge := false
	e.Spawn(func(th *T) {
		// Larger than the E-cache, so both readers keep missing on the
		// shared pages — the monitor only sees misses, like the CML.
		shared := th.Alloc(2 << 20)
		var kids []mem.ThreadID
		for i := 0; i < 2; i++ {
			kids = append(kids, th.Create("reader", func(c *T) {
				for r := 0; r < 4; r++ {
					c.ReadRange(shared.Base, shared.Len)
					c.Yield()
				}
				// By now both readers have missed on the same pages.
				if e.Monitor().Coefficient(kids[0], kids[1]) > 0.3 ||
					e.Monitor().Coefficient(kids[1], kids[0]) > 0.3 {
					sawEdge = true
				}
			}))
		}
		th.Join(kids[0])
		th.Join(kids[1])
	}, SpawnOpts{})
	mustRun(t, e)
	if !sawEdge {
		t.Error("inference never connected the co-accessing readers")
	}
	if e.Monitor().Touches() == 0 {
		t.Error("monitor saw no misses")
	}
}

// TestMonitorNilWithoutOption: inference off means no monitor and no
// per-miss hook cost.
func TestMonitorNilWithoutOption(t *testing.T) {
	e := newEngine(t, 1, "LFF")
	if e.Monitor() != nil {
		t.Error("monitor exists without InferSharing")
	}
}

// TestSemaphoreAsJoinCounter: the common completion-semaphore idiom.
func TestSemaphoreAsJoinCounter(t *testing.T) {
	e := newEngine(t, 4, "FCFS")
	done := NewSemaphore("done", 0)
	e.Spawn(func(th *T) {
		const n = 20
		for i := 0; i < n; i++ {
			th.Create("w", func(c *T) {
				c.Compute(100)
				c.SemPost(done)
			})
		}
		for i := 0; i < n; i++ {
			th.SemWait(done)
		}
	}, SpawnOpts{})
	mustRun(t, e)
}

// TestTimersFireInOrder: staggered sleepers wake in deadline order even
// when enqueued out of order.
func TestTimersFireInOrder(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	var order []int
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		delays := []uint64{50_000, 10_000, 30_000}
		for i, d := range delays {
			i, d := i, d
			kids = append(kids, th.Create("sleeper", func(c *T) {
				c.Sleep(d)
				order = append(order, i)
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("wake order = %v, want [1 2 3] by deadline", order)
	}
}

// TestZeroLengthOpsAreNoops: degenerate arguments must not wedge the
// engine.
func TestZeroLengthOpsAreNoops(t *testing.T) {
	e := newEngine(t, 1, "LFF")
	e.Spawn(func(th *T) {
		th.Compute(0)
		th.ReadRange(0x1000, 0)
		th.Access(mem.Access{})
		th.Touch(mem.Range{})
		th.Sleep(0)
	}, SpawnOpts{})
	mustRun(t, e)
}

// TestCreateInsideDeepNesting: thread-creating threads several levels
// deep (the merge/tsp shape) with joins at every level.
func TestCreateInsideDeepNesting(t *testing.T) {
	e := newEngine(t, 2, "CRT")
	leaves := 0
	var spawn func(c *T, depth int)
	spawn = func(c *T, depth int) {
		if depth == 0 {
			leaves++
			return
		}
		a := c.Create("n", func(c2 *T) { spawn(c2, depth-1) })
		b := c.Create("n", func(c2 *T) { spawn(c2, depth-1) })
		c.Join(a)
		c.Join(b)
	}
	e.Spawn(func(th *T) { spawn(th, 5) }, SpawnOpts{})
	mustRun(t, e)
	if leaves != 32 {
		t.Errorf("leaves = %d, want 32", leaves)
	}
}

func TestThreadTimes(t *testing.T) {
	e := newEngine(t, 2, "FCFS")
	e.Spawn(func(th *T) {
		big := th.Create("big", func(c *T) { c.Compute(500_000) })
		small := th.Create("small", func(c *T) { c.Compute(5_000) })
		th.Join(big)
		th.Join(small)
	}, SpawnOpts{Name: "main"})
	mustRun(t, e)
	times := e.Snapshot().Threads
	if len(times) != 3 {
		t.Fatalf("threads = %d", len(times))
	}
	if times[0].Name != "big" {
		t.Errorf("top consumer = %s, want big", times[0].Name)
	}
	var big, small uint64
	for _, tt := range times {
		if tt.Dispatches == 0 {
			t.Errorf("%s never dispatched", tt.Name)
		}
		switch tt.Name {
		case "big":
			big = tt.Cycles
		case "small":
			small = tt.Cycles
		}
	}
	if big < 90*small {
		t.Errorf("big (%d) not ~100x small (%d)", big, small)
	}
}

func TestMaxStepsWatchdog(t *testing.T) {
	m := machine.New(machine.UltraSPARC1())
	e, err := New(sim.New(m), Options{Policy: "FCFS", Seed: 1, MaxSteps: 500})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Spawn(func(th *T) {
		for { // spins forever: the watchdog must abort the run
			th.Yield()
		}
	}, SpawnOpts{Name: "spinner"})
	err = e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("watchdog err = %v", err)
	}
}

func TestSignalNoWaitersIsNoop(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	c := NewCond("c")
	sem := NewSemaphore("s", 0)
	e.Spawn(func(th *T) {
		th.CondSignal(c)
		th.CondBroadcast(c)
		th.SemPost(sem)
		th.SemWait(sem) // consumes the post
	}, SpawnOpts{})
	mustRun(t, e)
}

func TestBarrierSingleParty(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	b := NewBarrier("solo", 1)
	rounds := 0
	e.Spawn(func(th *T) {
		for i := 0; i < 5; i++ {
			th.BarrierWait(b) // sole party: never blocks
			rounds++
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if rounds != 5 {
		t.Errorf("rounds = %d", rounds)
	}
}

func TestDeadlockNamesTheResource(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("hotlock")
	e.Spawn(func(th *T) {
		th.Lock(mu)
		th.Lock(mu)
	}, SpawnOpts{Name: "victim"})
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mutex hotlock") {
		t.Errorf("deadlock report lacks the resource: %v", err)
	}
}

func TestDeadlockNamesBarrierProgress(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	b := NewBarrier("phase", 3)
	e.Spawn(func(th *T) {
		a := th.Create("a", func(c *T) { c.BarrierWait(b) })
		th.Join(a) // only 1 of 3 parties ever arrives
	}, SpawnOpts{Name: "main"})
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "barrier phase (1/3 arrived)") {
		t.Errorf("deadlock report lacks barrier progress: %v", err)
	}
}
