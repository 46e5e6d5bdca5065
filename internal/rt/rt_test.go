package rt

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/platform/sim"
)

// machineOf digs the simulated machine out of a test engine's platform.
func machineOf(e *Engine) *machine.Machine { return e.plat.(*sim.Platform).Machine() }

// newEngine builds an engine on a default Ultra-1 with the given policy.
func newEngine(t *testing.T, cpus int, policy string) *Engine {
	t.Helper()
	var cfg machine.Config
	if cpus == 1 {
		cfg = machine.UltraSPARC1()
	} else {
		cfg = machine.Enterprise5000(cpus)
	}
	e, err := New(sim.New(machine.New(cfg)), Options{Policy: policy, Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSingleThreadRuns(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	ran := false
	var r mem.Range
	e.Spawn(func(th *T) {
		r = th.Alloc(4096)
		th.ReadRange(r.Base, 4096)
		th.Compute(100)
		ran = true
	}, SpawnOpts{Name: "solo"})
	mustRun(t, e)
	if !ran {
		t.Fatal("body did not run")
	}
	cpu := machineOf(e).CPU(0)
	// 64 data misses plus the code-region reload (2048/64 = 32 lines)
	// plus a few scheduler-structure misses.
	if cpu.EMisses < 4096/64 || cpu.EMisses > 4096/64+40 {
		t.Errorf("misses = %d, want 64 data + ~32 code + scheduler noise", cpu.EMisses)
	}
	if cpu.Instrs < 100+4096/8 {
		t.Errorf("instrs = %d", cpu.Instrs)
	}
}

func TestCreateAndJoin(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	var order []string
	e.Spawn(func(th *T) {
		child := th.Create("child", func(c *T) {
			c.Compute(50)
			order = append(order, "child")
		})
		th.Join(child)
		order = append(order, "parent")
		// Joining an exited thread returns immediately.
		th.Join(child)
	}, SpawnOpts{Name: "parent"})
	mustRun(t, e)
	if len(order) != 2 || order[0] != "child" || order[1] != "parent" {
		t.Errorf("order = %v", order)
	}
}

func TestManyThreadsAllRun(t *testing.T) {
	e := newEngine(t, 4, "LFF")
	const n = 200
	done := make([]bool, n)
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < n; i++ {
			i := i
			kids = append(kids, th.Create("w", func(c *T) {
				r := c.Alloc(1024)
				c.ReadRange(r.Base, 1024)
				done[i] = true
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{Name: "main"})
	mustRun(t, e)
	for i, d := range done {
		if !d {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	e := newEngine(t, 2, "FCFS")
	mu := NewMutex("m")
	depth := 0
	maxDepth := 0
	var order []int
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 8; i++ {
			i := i
			kids = append(kids, th.Create("locker", func(c *T) {
				c.Lock(mu)
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
				order = append(order, i)
				c.Compute(1000)
				depth--
				c.Unlock(mu)
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if maxDepth != 1 {
		t.Errorf("mutual exclusion violated: depth %d", maxDepth)
	}
	if len(order) != 8 {
		t.Errorf("only %d lockers ran", len(order))
	}
	if mu.Locked() {
		t.Error("mutex still held at exit")
	}
}

func TestUnlockNotHeldFails(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("m")
	e.Spawn(func(th *T) { th.Unlock(mu) }, SpawnOpts{Name: "bad"})
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "not held") {
		t.Errorf("err = %v", err)
	}
}

func TestSemaphore(t *testing.T) {
	e := newEngine(t, 2, "FCFS")
	sem := NewSemaphore("s", 2)
	inside, maxInside := 0, 0
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 6; i++ {
			kids = append(kids, th.Create("w", func(c *T) {
				c.SemWait(sem)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				c.Compute(500)
				c.Yield() // force interleaving inside the section
				inside--
				c.SemPost(sem)
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if maxInside > 2 {
		t.Errorf("semaphore admitted %d threads, cap 2", maxInside)
	}
	if maxInside < 2 {
		t.Errorf("semaphore never reached its capacity (max %d)", maxInside)
	}
	if sem.Value() != 2 {
		t.Errorf("final value = %d", sem.Value())
	}
}

func TestBarrier(t *testing.T) {
	e := newEngine(t, 4, "FCFS")
	b := NewBarrier("b", 4)
	const rounds = 3
	counts := make([]int, rounds)
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 4; i++ {
			kids = append(kids, th.Create("p", func(c *T) {
				for r := 0; r < rounds; r++ {
					counts[r]++
					c.BarrierWait(b)
					// After the barrier, every party must have
					// contributed to this round.
					if counts[r] != 4 {
						panic("barrier released early")
					}
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	for r, c := range counts {
		if c != 4 {
			t.Errorf("round %d count = %d", r, c)
		}
	}
}

func TestCondVar(t *testing.T) {
	e := newEngine(t, 2, "FCFS")
	mu := NewMutex("m")
	cond := NewCond("c")
	queue := 0
	consumed := 0
	e.Spawn(func(th *T) {
		consumer := th.Create("consumer", func(c *T) {
			for consumed < 5 {
				c.Lock(mu)
				for queue == 0 {
					c.CondWait(cond, mu)
				}
				queue--
				consumed++
				c.Unlock(mu)
			}
		})
		producer := th.Create("producer", func(c *T) {
			for i := 0; i < 5; i++ {
				c.Lock(mu)
				queue++
				c.CondSignal(cond)
				c.Unlock(mu)
				c.Sleep(1000)
			}
		})
		th.Join(consumer)
		th.Join(producer)
	}, SpawnOpts{})
	mustRun(t, e)
	if consumed != 5 || queue != 0 {
		t.Errorf("consumed %d, queue %d", consumed, queue)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("m")
	cond := NewCond("c")
	released := 0
	go_ := false
	e.Spawn(func(th *T) {
		var kids []mem.ThreadID
		for i := 0; i < 3; i++ {
			kids = append(kids, th.Create("waiter", func(c *T) {
				c.Lock(mu)
				for !go_ {
					c.CondWait(cond, mu)
				}
				released++
				c.Unlock(mu)
			}))
		}
		th.Sleep(10000) // let the waiters block
		th.Lock(mu)
		go_ = true
		th.CondBroadcast(cond)
		th.Unlock(mu)
		for _, k := range kids {
			th.Join(k)
		}
	}, SpawnOpts{})
	mustRun(t, e)
	if released != 3 {
		t.Errorf("released = %d, want 3", released)
	}
}

func TestCondWaitWithoutMutexFails(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("m")
	cond := NewCond("c")
	e.Spawn(func(th *T) { th.CondWait(cond, mu) }, SpawnOpts{})
	if err := e.Run(context.Background()); err == nil {
		t.Error("CondWait without mutex did not fail")
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	e.Spawn(func(th *T) {
		th.Sleep(1_000_000)
	}, SpawnOpts{})
	mustRun(t, e)
	if got := machineOf(e).CPU(0).Cycles; got < 1_000_000 {
		t.Errorf("clock after sleep = %d", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("m")
	e.Spawn(func(th *T) {
		th.Lock(mu)
		th.Lock(mu) // self-deadlock
	}, SpawnOpts{Name: "victim"})
	err := e.Run(context.Background())
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "victim") {
		t.Errorf("deadlock report does not name the thread: %v", err)
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	e.Spawn(func(th *T) { panic("boom") }, SpawnOpts{Name: "bomb"})
	err := e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestYieldIsFairUnderFCFS(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	var order []int
	e.Spawn(func(th *T) {
		a := th.Create("a", func(c *T) {
			for i := 0; i < 3; i++ {
				order = append(order, 0)
				c.Yield()
			}
		})
		b := th.Create("b", func(c *T) {
			for i := 0; i < 3; i++ {
				order = append(order, 1)
				c.Yield()
			}
		})
		th.Join(a)
		th.Join(b)
	}, SpawnOpts{})
	mustRun(t, e)
	// FCFS with yields must alternate: 0 1 0 1 0 1.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("FCFS yield order not alternating: %v", order)
		}
	}
}

func TestShareBuildsGraph(t *testing.T) {
	e := newEngine(t, 1, "LFF")
	e.Spawn(func(th *T) {
		c := th.Create("c", func(*T) {})
		th.Share(c, th.ID(), 1.0)
		if got := e.Graph().Coefficient(c, th.ID()); got != 1.0 {
			panic("annotation not recorded")
		}
		th.Join(c)
	}, SpawnOpts{})
	mustRun(t, e)
	// After both exited the graph must be empty.
	if e.Graph().Edges() != 0 {
		t.Errorf("graph has %d edges after exit", e.Graph().Edges())
	}
}

func TestDisableAnnotations(t *testing.T) {
	m := machine.New(machine.UltraSPARC1())
	e, err := New(sim.New(m), Options{Policy: "LFF", DisableAnnotations: true, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Spawn(func(th *T) {
		c := th.Create("c", func(*T) {})
		th.Share(c, th.ID(), 1.0)
		if e.Graph().Edges() != 0 {
			panic("annotation recorded despite ablation")
		}
		th.Join(c)
	}, SpawnOpts{})
	mustRun(t, e)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func(policy string) (uint64, uint64, uint64) {
		e := newEngine(t, 4, policy)
		e.Spawn(func(th *T) {
			var kids []mem.ThreadID
			for i := 0; i < 50; i++ {
				kids = append(kids, th.Create("w", func(c *T) {
					r := c.Alloc(8192)
					for j := 0; j < 5; j++ {
						c.ReadRange(r.Base, 8192)
						c.Sleep(uint64(1000 + c.Rand().Intn(1000)))
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		}, SpawnOpts{})
		mustRun(t, e)
		_, _, misses := machineOf(e).Totals()
		return misses, machineOf(e).MaxCycles(), machineOf(e).TotalInstrs()
	}
	for _, policy := range []string{"FCFS", "LFF", "CRT"} {
		m1, c1, i1 := run(policy)
		m2, c2, i2 := run(policy)
		if m1 != m2 || c1 != c2 || i1 != i2 {
			t.Errorf("%s nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", policy, m1, c1, i1, m2, c2, i2)
		}
	}
}

func TestMultiCPUParallelism(t *testing.T) {
	// Two CPU-bound threads on two CPUs should finish in about half the
	// serial time.
	serial := func(cpus int) uint64 {
		e := newEngine(t, cpus, "FCFS")
		e.Spawn(func(th *T) {
			a := th.Create("a", func(c *T) { c.Compute(1_000_000) })
			b := th.Create("b", func(c *T) { c.Compute(1_000_000) })
			th.Join(a)
			th.Join(b)
		}, SpawnOpts{})
		mustRun(t, e)
		return machineOf(e).MaxCycles()
	}
	t1, t2 := serial(1), serial(2)
	if t2 >= t1 {
		t.Errorf("2 CPUs (%d cycles) not faster than 1 (%d)", t2, t1)
	}
	if float64(t1)/float64(t2) < 1.8 {
		t.Errorf("speedup %v, want ~2", float64(t1)/float64(t2))
	}
}

func TestLocalityPolicyReducesMisses(t *testing.T) {
	// The core end-to-end claim on a miniature tasks benchmark: threads
	// with disjoint working sets, far more state than the cache, each
	// waking repeatedly. LFF must take substantially fewer E-misses
	// than FCFS.
	run := func(policy string) uint64 {
		cfg := machine.UltraSPARC1()
		cfg.L2.Size = 64 * 1024 // 1024 lines: holds ~5 of 40 footprints
		m := machine.New(cfg)
		e, err := New(sim.New(m), Options{Policy: policy, Seed: 7})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		e.Spawn(func(th *T) {
			var kids []mem.ThreadID
			for i := 0; i < 40; i++ {
				kids = append(kids, th.Create("task", func(c *T) {
					state := c.Alloc(200 * 64) // 200 lines
					for p := 0; p < 20; p++ {
						c.Touch(state)
						c.Sleep(3000)
					}
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		}, SpawnOpts{})
		mustRun(t, e)
		_, _, misses := m.Totals()
		return misses
	}
	fcfs, lff := run("FCFS"), run("LFF")
	if lff >= fcfs {
		t.Fatalf("LFF misses %d >= FCFS %d", lff, fcfs)
	}
	if elim := 100 * float64(fcfs-lff) / float64(fcfs); elim < 30 {
		t.Errorf("LFF eliminated only %.1f%% of misses", elim)
	}
}

func TestNoGoroutineLeakAfterFailure(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	mu := NewMutex("m")
	e.Spawn(func(th *T) {
		for i := 0; i < 10; i++ {
			th.Create("waiter", func(c *T) {
				c.Lock(mu)
			})
		}
		th.Lock(mu)
		// Exit while holding: the waiters deadlock.
	}, SpawnOpts{})
	err := e.Run(context.Background())
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	// killRemaining must have unwound the parked goroutines; nothing to
	// assert directly without runtime introspection, but a second Run
	// must not hang or double-kill.
	if e.live != 0 {
		t.Errorf("live = %d after teardown", e.live)
	}
}

func TestUnknownPolicyErrors(t *testing.T) {
	_, err := New(sim.New(machine.New(machine.UltraSPARC1())), Options{Policy: "WEIRD"})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "WEIRD") {
		t.Errorf("err = %v, want it to name the bad policy", err)
	}
}

func TestDispatchCounts(t *testing.T) {
	e := newEngine(t, 1, "FCFS")
	e.Spawn(func(th *T) {
		for i := 0; i < 5; i++ {
			th.Yield()
		}
	}, SpawnOpts{})
	mustRun(t, e)
	d := e.Snapshot().Dispatches
	if d[0] < 6 { // initial dispatch + one per yield
		t.Errorf("dispatches = %v", d)
	}
}
