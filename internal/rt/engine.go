// Package rt is the reproduction's Active Threads runtime: a
// deterministic green-thread system running over a platform backend
// (internal/platform — the simulated SMP of internal/machine via
// platform/sim, or any other substrate exposing per-CPU clocks and
// miss counters), scheduled by the locality framework of
// internal/sched.
//
// Simulated threads are ordinary Go functions executed on goroutines,
// but the goroutines are used strictly as coroutines: exactly one
// goroutine runs at a time, and every scheduling decision is made by
// this engine — never by the Go scheduler (the reproduction hint warns
// that the goroutine scheduler is opaque; here it has no influence at
// all). There is no engine goroutine: the run loop is a baton. The
// thread that issues a request handles it on its own goroutine and
// runs the loop to the next step; a repeat step of the same thread
// just returns to its body, and only a change of thread costs a
// goroutine switch — one unbuffered channel send to the next thread.
// Running any program twice produces identical cycle counts, miss
// counts and schedules.
//
// The engine is a sequential discrete-event simulation with one cycle
// clock per CPU: it always advances the CPU with the smallest clock, so
// cross-CPU event ordering is conservative and total.
package rt

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/annot"
	"repro/internal/inference"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Options configures an engine.
type Options struct {
	// Policy selects the scheduling policy: "FCFS", "LFF", "CRT", or
	// any scheme added with model.RegisterScheme. Empty means FCFS.
	Policy string
	// ThresholdLines is the footprint below which a heap entry is
	// demoted (default 16 lines).
	ThresholdLines float64
	// DisableAnnotations makes Share a no-op — the paper's ablation of
	// user annotations (Section 5: photo/LFF without annotations).
	DisableAnnotations bool
	// SpawnStacks places freshly created threads on per-CPU LIFO spawn
	// stacks stolen oldest-first (Blumofe-Leiserson work-first), a
	// design ablation; the default keeps the paper's global FIFO.
	SpawnStacks bool
	// FairnessLimit bounds starvation: a runnable thread waiting in
	// the global queue longer than this many dispatches bypasses the
	// locality heaps (the Section 7 escape mechanism). Zero disables
	// fairness, the paper's default domain.
	FairnessLimit uint64
	// KeepInferenceHistory prevents the inference monitor from
	// forgetting exited threads, so a profiling run's full co-access
	// evidence can be harvested afterwards (the paper's "repeated
	// trial runs" alternative). Requires InferSharing.
	KeepInferenceHistory bool
	// InferSharing turns on runtime sharing inference (the paper's
	// Section 7 future work): a software Cache Miss Lookaside buffer
	// watches page-granularity miss co-access and synthesizes
	// at_share coefficients with no user annotations. Usually combined
	// with DisableAnnotations to schedule unannotated programs.
	InferSharing bool
	// Health tunes the counter-reading sanitizer and the quarantine
	// state machine (see HealthConfig). The zero value selects the
	// documented defaults; the sanitizer is always on, and is
	// bit-transparent on healthy counters.
	Health HealthConfig
	// Obs attaches an observability observer (internal/obs): event
	// tracing and metrics for this engine. Nil means off; the engine
	// then pays one nil-check per emission site and nothing else, and
	// — because every recorded value derives from virtual clocks and
	// counters the engine already computes — an attached observer
	// never perturbs the simulation itself (the golden tests pin
	// this).
	Obs *obs.Observer
	// Seed fixes the engine's pseudo-randomness (per-thread RNG
	// streams).
	Seed uint64
	// MaxSteps aborts runs that exceed this many engine steps (safety
	// valve for buggy workloads; 0 means 4e9).
	MaxSteps uint64
	// Checkpoint enables crash-safe checkpoint/resume (see
	// CheckpointConfig and checkpoint.go). The zero value disables it.
	Checkpoint CheckpointConfig
	// StallTimeout arms the stall watchdog: a run making no dispatch
	// progress for this much wall time aborts with a diagnostic state
	// dump instead of spinning forever (see watchdog.go). Zero
	// disables it. Wall time never feeds the simulation, so goldens
	// are unaffected.
	StallTimeout time.Duration
}

// Engine runs threads on a platform backend.
type Engine struct {
	plat platform.Platform
	// cpus caches the per-CPU handles (Platform.CPU returns stable
	// handles; caching keeps clock reads off the hot path's map/bounds
	// checks).
	cpus  []platform.CPU
	mdl   *model.Model
	graph *annot.Graph
	sched *sched.Scheduler
	opts  Options

	threads map[mem.ThreadID]*T
	nextID  mem.ThreadID
	live    int

	running []*T
	parked  []bool
	// clockHeap orders unparked CPUs by (clock, ID) so nextCPU is
	// O(log n) instead of a linear scan — the scan is invisible at 8
	// CPUs but dominates the pick at 256. Entries re-key lazily: the
	// stepped CPU's entry goes stale when its clock advances and is
	// sifted back into place on the next pick. inClockHeap caps the
	// heap at one entry per CPU across park/unpark cycles.
	clockHeap   []cpuClockEnt
	inClockHeap []bool
	// idleCycles accumulates, per CPU, clock advanced while parked —
	// the utilization accounting behind Stats.
	idleCycles []uint64
	picBase    []platform.CounterSnapshot
	// dispatches counts context switches per CPU (diagnostics).
	dispatches []uint64

	timers   timerQueue
	timerSeq uint64

	overhead overheadState
	rng      *xrand.Source
	monitor  *inference.Monitor
	// obs is the attached observer (nil = off); om caches its metric
	// handles so instrumented paths cost one nil-check when disabled
	// and one atomic add when enabled — never a registry lookup.
	obs *obs.Observer
	om  obsHandles
	// health sanitizes every interval's counter reading and tracks
	// per-CPU quarantine state (see health.go).
	health *healthTracker
	// ckpt is the checkpoint cursor (see checkpoint.go); wd is the
	// stall watchdog, created per Run when StallTimeout is set.
	ckpt ckptState
	wd   *watchdog

	defaultCode mem.Range
	steps       uint64
	// now is the clock of the CPU currently being processed; it is the
	// engine's notion of global time (nondecreasing because the engine
	// always processes the minimum-clock CPU).
	now     uint64
	failure error

	// Run state shared by whichever goroutine holds the baton: the
	// run's context, the channel that hands the baton back to Run, the
	// run's result, an engine panic awaiting re-raise, and the count of
	// baton passes between thread goroutines.
	ctx      context.Context
	done     chan struct{}
	runErr   error
	panicked *EnginePanic
	handoffs uint64

	// OnDispatch, when non-nil, observes every context switch (after
	// the thread is installed). For tests and diagnostics only; it
	// must not call back into the engine.
	OnDispatch func(cpu int, tid mem.ThreadID, name string)
	// OnEvent, when non-nil, observes the scheduling-relevant event
	// stream — thread spawns and exits, sharing-graph writes, and one
	// interval record per context switch. trace.Recorder consumes it to
	// capture runs for the replay backend. It must not call back into
	// the engine.
	OnEvent func(ev trace.Event)
}

// ErrDeadlock is returned by Run when live threads remain but none can
// ever become runnable again.
var ErrDeadlock = errors.New("rt: deadlock: blocked threads with no wake source")

// New builds an engine over a platform backend. It returns an error —
// not a panic — for user-reachable configuration mistakes: an unknown
// policy name, a negative threshold, or a platform whose geometry the
// model cannot host.
func New(p platform.Platform, opts Options) (*Engine, error) {
	if opts.Policy == "" {
		opts.Policy = "FCFS"
	}
	if opts.ThresholdLines == 0 {
		opts.ThresholdLines = 16
	}
	if opts.ThresholdLines < 0 {
		return nil, fmt.Errorf("rt: negative demotion threshold %v", opts.ThresholdLines)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 4e9
	}
	if opts.KeepInferenceHistory && !opts.InferSharing {
		return nil, fmt.Errorf("rt: KeepInferenceHistory requires InferSharing")
	}
	if err := opts.Health.validate(); err != nil {
		return nil, err
	}
	scheme, err := model.SchemeFor(opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	ncpu := p.NCPU()
	if ncpu < 1 {
		return nil, fmt.Errorf("rt: platform reports %d CPUs", ncpu)
	}
	if scheme != nil && p.CacheLines() < 2 {
		return nil, fmt.Errorf("rt: platform cache of %d lines cannot host the footprint model", p.CacheLines())
	}
	e := &Engine{
		plat:       p,
		graph:      annot.New(),
		opts:       opts,
		threads:    make(map[mem.ThreadID]*T),
		running:    make([]*T, ncpu),
		parked:     make([]bool, ncpu),
		idleCycles: make([]uint64, ncpu),
		picBase:    make([]platform.CounterSnapshot, ncpu),
		dispatches: make([]uint64, ncpu),
		rng:        xrand.New(opts.Seed ^ 0x7d3),
		health:     newHealthTracker(opts.Health, ncpu),
	}
	for i := 0; i < ncpu; i++ {
		e.cpus = append(e.cpus, p.CPU(i))
	}
	if scheme != nil {
		e.mdl = model.New(p.CacheLines())
	}
	e.sched = sched.New(e.mdl, scheme, e.graph, ncpu, opts.ThresholdLines,
		platform.MissCounterOf(p))
	e.sched.SetSharedClock(p.SharedLLC())
	e.sched.SetFairnessLimit(opts.FairnessLimit)
	e.sched.SetSpawnStacks(opts.SpawnStacks)
	e.obs = opts.Obs
	e.om.init(e.obs)
	e.sched.SetObserver(e.obs, func(cpu int) uint64 { return e.cpus[cpu].Cycles() })
	if opts.StallTimeout < 0 {
		return nil, fmt.Errorf("rt: negative stall timeout %v", opts.StallTimeout)
	}
	if err := e.initCheckpoint(opts.Checkpoint); err != nil {
		return nil, err
	}
	e.overhead.init(p)
	e.defaultCode = p.Alloc(defaultCodeBytes, 64)
	if opts.InferSharing {
		e.monitor = inference.NewMonitor(p.PageBytes())
		p.SetMissHook(e.monitor.Touch)
	}
	return e, nil
}

// Monitor returns the sharing-inference monitor, or nil when inference
// is off.
func (e *Engine) Monitor() *inference.Monitor { return e.monitor }

// Platform returns the engine's platform backend.
func (e *Engine) Platform() platform.Platform { return e.plat }

// Scheduler exposes the scheduler (stats, diagnostics).
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Graph exposes the shared-state dependency graph.
func (e *Engine) Graph() *annot.Graph { return e.graph }

// Observer returns the attached observability observer, or nil.
func (e *Engine) Observer() *obs.Observer { return e.obs }

// totalDispatches sums the per-CPU dispatch counts.
func (e *Engine) totalDispatches() uint64 {
	var n uint64
	for _, d := range e.dispatches {
		n += d
	}
	return n
}

// SpawnOpts configures thread creation.
type SpawnOpts struct {
	// Name labels the thread in diagnostics.
	Name string
	// Code is the thread's code region; the zero Range means the
	// engine-wide shared default region (threads running the same
	// function share text).
	Code mem.Range
}

// Spawn creates a thread executing body and makes it runnable. It may
// be called before Run (to seed the program) or from inside thread
// bodies via T.Create.
func (e *Engine) Spawn(body func(*T), opts SpawnOpts) mem.ThreadID {
	t := e.newThread(body, opts)
	e.sched.Register(t.id)
	if e.OnEvent != nil {
		e.OnEvent(trace.Event{Kind: trace.EvSpawn, Thread: t.id})
	}
	e.noteSpawned(t, e.now, 0)
	e.sched.MakeRunnable(t.id)
	e.unparkAll(e.now)
	return t.id
}

// noteSpawned stamps a fresh thread's ready clock and records its spawn
// on the trace (cpu is the ring the event lands in: the creator for
// T.Create, CPU 0 for pre-run Spawn).
func (e *Engine) noteSpawned(t *T, now uint64, cpu int) {
	t.readyClock = now
	if e.obs.Tracing() {
		e.obs.NameThread(t.id, t.name)
		e.obs.Emit(obs.Event{Time: now, Kind: obs.KSpawn, CPU: int16(cpu), Thread: t.id,
			A: uint64(len(e.graph.OutEdges(t.id)))})
	}
}

func (e *Engine) newThread(body func(*T), opts SpawnOpts) *T {
	id := e.nextID
	e.nextID++
	code := opts.Code
	if code.Len == 0 {
		code = e.defaultCode
	}
	t := &T{
		id:       id,
		name:     opts.Name,
		eng:      e,
		body:     body,
		code:     code,
		toThread: make(chan struct{}),
		rng:      xrand.New(e.opts.Seed ^ (0x9e1 * (uint64(id) + 1))),
		status:   statusReady,
	}
	e.threads[id] = t
	e.live++
	go t.run()
	return t
}

// Run drives the simulation until every thread has exited. It returns
// ErrDeadlock if blocked threads remain with nothing to wake them, the
// recovered error if a thread body panicked, or the context's error if
// ctx is cancelled mid-run (checked at every dispatch and every few
// thousand steps, so cancellation is observed within one scheduling
// interval while the hot loop stays branch-cheap). With checkpointing
// configured it writes a snapshot whenever the virtual clock crosses a
// boundary, and with a resume snapshot it first fast-forwards to the
// snapshot's step cursor and verifies bit-exact agreement (see
// checkpoint.go). With a stall watchdog armed it aborts with a
// diagnostic state dump when no dispatch happens for StallTimeout of
// wall time.
//
// The loop itself runs on whichever goroutine holds the baton (see
// turn): Run takes the first turn, hands the baton to the first thread
// due a step, and waits for the run to end. A panic in engine code —
// including the OnCheckpoint, OnDispatch and OnEvent callbacks — ends
// the run and is re-raised here, on the caller's goroutine, as an
// *EnginePanic.
func (e *Engine) Run(ctx context.Context) error {
	defer e.killRemaining()
	if e.opts.StallTimeout > 0 {
		e.wd = newWatchdog(e.opts.StallTimeout)
		e.wd.start()
		defer e.wd.stop()
	}
	e.ctx = ctx
	e.done = make(chan struct{})
	if t := e.turn(nil); t != nil {
		e.pass(t)
		<-e.done
	}
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.runErr
}

// EnginePanic is the value Run re-panics with when engine code panicked
// during the run, usually on a thread goroutine. Its text is the
// original panic value's, so a caller that recovers and formats it with
// %v sees the same message; Stack is the trace of the goroutine where
// the panic happened.
type EnginePanic struct {
	Value any
	Stack []byte
}

func (p *EnginePanic) Error() string { return fmt.Sprint(p.Value) }

// turn is one holding of the baton: it handles t's pending request (t
// is nil for Run's opening turn) and runs the loop to the next thread
// due a step, which it returns — nil when the run is over. A panic in
// engine code ends the run here instead of unwinding into the thread
// body, whose recover would misreport it as a thread panic.
func (e *Engine) turn(t *T) (next *T) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = &EnginePanic{Value: r, Stack: debug.Stack()}
			if t != nil && (t.req.kind == reqExit || t.req.kind == reqPanic) {
				// The goroutine returns without parking; teardown must
				// not wait for it.
				t.status = statusDead
			}
			next = nil
		}
	}()
	if t != nil {
		e.handle(t.cpu, t, &t.req)
	}
	return e.next()
}

// pass hands the baton to t, or back to Run when t is nil (the run is
// over). The unbuffered send is the happens-before edge between the
// goroutine giving up engine state and the one taking it.
func (e *Engine) pass(t *T) {
	if t == nil {
		e.done <- struct{}{}
		return
	}
	e.handoffs++
	t.toThread <- struct{}{}
}

// next runs loop iterations until a running thread is due a step and
// returns it; the caller then lets that thread run to its next request.
// It returns nil when the run ends, with runErr set to the run's result.
func (e *Engine) next() *T {
	for e.live > 0 {
		if e.failure != nil {
			return e.end(e.failure)
		}
		if e.wd.tripped() {
			return e.end(e.stallError())
		}
		if e.ckpt.every > 0 && e.now >= e.ckpt.next {
			if err := e.crossBoundary(); err != nil {
				return e.end(err)
			}
		}
		if e.ckpt.resume != nil && e.steps == e.ckpt.resume.Steps {
			if err := e.verifyResume(); err != nil {
				return e.end(err)
			}
		}
		e.steps++
		if e.steps > e.opts.MaxSteps {
			return e.end(fmt.Errorf("rt: exceeded %d engine steps (runaway workload?)", e.opts.MaxSteps))
		}
		if e.steps&1023 == 0 {
			if err := e.ctx.Err(); err != nil {
				return e.end(fmt.Errorf("rt: run cancelled after %d steps: %w", e.steps, err))
			}
		}
		p := e.nextCPU()
		if p < 0 {
			if !e.advanceToTimer() {
				return e.end(e.describeDeadlock())
			}
			continue
		}
		if c := e.cpus[p].Cycles(); c > e.now {
			e.now = c
		}
		e.fireTimers(e.now, p)
		if t := e.running[p]; t != nil {
			return t
		}
		if tid, ok := e.sched.PickNext(p); ok {
			if err := e.ctx.Err(); err != nil {
				return e.end(fmt.Errorf("rt: run cancelled after %d steps: %w", e.steps, err))
			}
			e.dispatch(p, tid)
			continue
		}
		e.parked[p] = true
	}
	if e.ckpt.resume != nil {
		return e.end(fmt.Errorf("rt: run completed after %d steps without reaching the resume snapshot's step cursor %d — the snapshot is not from this workload and configuration",
			e.steps, e.ckpt.resume.Steps))
	}
	return e.end(e.failure)
}

// end records the run's result and returns the nil "no next thread"
// that ends it.
func (e *Engine) end(err error) *T {
	e.runErr = err
	return nil
}

// nextCPU returns the unparked CPU with the smallest clock (lowest ID on
// ties), or -1 when all are parked.
func (e *Engine) nextCPU() int {
	if e.clockHeap == nil {
		e.clockHeap = make([]cpuClockEnt, 0, len(e.cpus))
		e.inClockHeap = make([]bool, len(e.cpus))
		for p := range e.cpus {
			if !e.parked[p] {
				e.pushCPUClock(e.cpus[p].Cycles(), int32(p))
			}
		}
	}
	for len(e.clockHeap) > 0 {
		top := e.clockHeap[0]
		p := int(top.cpu)
		if e.parked[p] {
			e.popCPUClock()
			continue
		}
		if c := e.cpus[p].Cycles(); c != top.clock {
			// Stale key (the CPU ran, or idled forward): re-key in
			// place and restore heap order. Clocks only move forward,
			// so a stored key is always a lower bound and the heap
			// minimum is exact once its top is fresh.
			e.clockHeap[0].clock = c
			e.siftDownCPUClock(0)
			continue
		}
		// Fresh minimum; the entry stays and re-keys lazily after this
		// CPU's clock advances.
		return p
	}
	return -1
}

// cpuClockEnt is one clock-heap entry; ordering is (clock, CPU ID) so
// equal clocks resolve to the lowest ID, matching the old linear scan.
type cpuClockEnt struct {
	clock uint64
	cpu   int32
}

func (e *Engine) cpuClockLess(a, b cpuClockEnt) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.cpu < b.cpu)
}

// pushCPUClock inserts cpu with the given clock key unless it already
// has a live entry (which is then a valid lower bound: clocks are
// monotonic, so the stale entry re-keys correctly when popped).
func (e *Engine) pushCPUClock(clock uint64, cpu int32) {
	if e.inClockHeap == nil || e.inClockHeap[cpu] {
		return
	}
	e.inClockHeap[cpu] = true
	e.clockHeap = append(e.clockHeap, cpuClockEnt{clock: clock, cpu: cpu})
	i := len(e.clockHeap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.cpuClockLess(e.clockHeap[i], e.clockHeap[parent]) {
			break
		}
		e.clockHeap[i], e.clockHeap[parent] = e.clockHeap[parent], e.clockHeap[i]
		i = parent
	}
}

// popCPUClock removes the heap top.
func (e *Engine) popCPUClock() {
	h := e.clockHeap
	e.inClockHeap[h[0].cpu] = false
	last := len(h) - 1
	h[0] = h[last]
	e.clockHeap = h[:last]
	if last > 0 {
		e.siftDownCPUClock(0)
	}
}

func (e *Engine) siftDownCPUClock(i int) {
	h := e.clockHeap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && e.cpuClockLess(h[right], h[left]) {
			min = right
		}
		if !e.cpuClockLess(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// unparkAll wakes idle CPUs because new work appeared; their clocks jump
// to at least now (they were idling), and the jump is accounted as idle
// time.
func (e *Engine) unparkAll(now uint64) {
	for p := range e.parked {
		if !e.parked[p] {
			continue
		}
		e.parked[p] = false
		if c := e.cpus[p].Cycles(); c < now {
			e.idleCycles[p] += now - c
			if e.om.idleCycles != nil {
				e.om.idleCycles.Add(p, now-c)
			}
			e.cpus[p].SetCycles(now)
		}
		e.pushCPUClock(e.cpus[p].Cycles(), int32(p))
	}
}

// advanceToTimer is called when every CPU is parked: if a timer is
// pending, idle the machine forward to it and fire; otherwise the
// system is deadlocked.
func (e *Engine) advanceToTimer() bool {
	if e.timers.Len() == 0 {
		return false
	}
	wake := e.timers[0].wakeAt
	e.unparkAll(wake)
	e.fireTimers(wake, 0)
	return true
}

// fireTimers wakes every sleeper whose deadline has passed. cpu is the
// processor whose engine-step fired the timers (CPU 0 when the whole
// machine was parked); it only places trace events.
func (e *Engine) fireTimers(now uint64, cpu int) {
	woke := false
	for e.timers.Len() > 0 && e.timers[0].wakeAt <= now {
		tm := heap.Pop(&e.timers).(timerEntry)
		t := e.threads[tm.tid]
		if t == nil || t.status != statusBlocked {
			continue
		}
		t.status = statusReady
		e.markReady(t, now, cpu)
		e.sched.MakeRunnable(t.id)
		woke = true
	}
	if woke {
		e.unparkAll(now)
	}
}

// dispatch installs thread tid on CPU p and charges the context-switch
// cost: the base switch latency, the scheduler's data-structure work
// since the last charge (cycles and cache traffic), and the thread's
// code reload.
func (e *Engine) dispatch(p int, tid mem.ThreadID) {
	t := e.threads[tid]
	if t == nil || t.status != statusReady {
		// Invariant: the scheduler only hands out registered, runnable
		// threads — a violation is engine corruption, not user error.
		panic(fmt.Sprintf("rt: dispatch of thread %v in status %v", tid, t.status))
	}
	e.sched.NoteDispatch(tid, p)
	if e.wd != nil {
		e.wd.noteProgress()
	}
	// The 64-bit miss count the scheduler's decay reference just read;
	// the interval record replays must carry the same value.
	t.dispatchMisses = e.cpus[p].Misses()
	e.dispatches[p]++
	if e.om.dispatches != nil {
		e.om.dispatches.Inc(p)
	}
	if e.monitor != nil && e.totalDispatches()%4096 == 0 {
		// Age out stale co-access evidence so phase changes do not
		// leave fossil coefficients behind.
		e.monitor.Decay()
	}
	e.plat.AdvanceCycles(p, ctxSwitchCycles)
	e.overhead.charge(e, p)
	// A thread woken to retry a mutex may find that someone barged in
	// while it travelled; it then re-blocks at the front of the queue
	// without running (the dispatch cost was still paid, as on real
	// hardware).
	if mu := t.retryLock; mu != nil {
		if mu.owner != nil {
			blockMisses := e.cpus[p].Misses()
			e.sched.OnBlock(tid, p, 0)
			if e.obs.Tracing() {
				// The zero-length occupancy still renders: a dispatch
				// immediately re-blocked on the barged lock.
				clock := e.cpus[p].Cycles()
				e.obs.Emit(obs.Event{Time: clock, Kind: obs.KDispatch, CPU: int16(p), Thread: tid,
					A: waitedCycles(clock, t.readyClock)})
				e.obs.Emit(obs.Event{Time: clock, Kind: obs.KBlock, CPU: int16(p), Thread: tid,
					Arg: uint8(obs.ReasonLock)})
			}
			if e.OnEvent != nil {
				// A zero-length interval: the thread occupied the CPU
				// but never ran, so both snapshots are the current read.
				snap := e.cpus[p].ReadCounters()
				clock := e.cpus[p].Cycles()
				e.OnEvent(trace.Event{Kind: trace.EvInterval, Interval: trace.Interval{
					CPU: p, Thread: tid,
					DispatchMisses: t.dispatchMisses, BlockMisses: blockMisses,
					StartRefs: snap.Refs, StartHits: snap.Hits,
					EndRefs: snap.Refs, EndHits: snap.Hits,
					StartCycles: clock, EndCycles: clock,
				}})
			}
			t.status = statusBlocked
			t.blockedOn = "mutex " + mu.name + " (barged)"
			mu.waiters = append([]*T{t}, mu.waiters...)
			return
		}
		mu.owner = t
		t.retryLock = nil
	}
	e.plat.TouchCode(p, tid, t.code)
	e.picBase[p] = e.cpus[p].ReadCounters()
	t.cpu = p
	t.dispatchClock = e.cpus[p].Cycles()
	t.dispatchCount++
	t.status = statusRunning
	e.running[p] = t
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{Time: t.dispatchClock, Kind: obs.KDispatch, CPU: int16(p), Thread: tid,
			A: waitedCycles(t.dispatchClock, t.readyClock)})
	}
	if e.om.waitCycles != nil {
		e.om.waitCycles.Observe(p, float64(waitedCycles(t.dispatchClock, t.readyClock)))
	}
	if e.OnDispatch != nil {
		e.OnDispatch(p, tid, t.name)
	}
}

// waitedCycles is the dispatch latency: cycles between a thread
// becoming runnable and being installed. The clamp covers the
// bootstrap dispatch, whose ready stamp can postdate the dispatching
// CPU's clock.
func waitedCycles(dispatchClock, readyClock uint64) uint64 {
	if dispatchClock <= readyClock {
		return 0
	}
	return dispatchClock - readyClock
}

// ThreadTime is one thread's accumulated execution accounting. The
// engine charges each thread the cycles its processor's clock advanced
// between its dispatch and its block — the same interval the PICs
// cover.
type ThreadTime struct {
	ID         mem.ThreadID
	Name       string
	Cycles     uint64 // processor cycles while dispatched
	Dispatches uint64
}

// blockCurrent performs the scheduling-point bookkeeping when the thread
// running on p leaves the processor: the PICs are read, the reading is
// sanitized (clamped and classified; a rejected reading feeds the
// scheduler nothing and advances the CPU toward quarantine), inferred
// sharing edges (if inference is on) are refreshed for the blocking
// thread, the model updates the blocking thread's and its dependents'
// footprint entries (O(d)), and the CPU becomes free.
func (e *Engine) blockCurrent(p int, t *T, reason obs.BlockReason) {
	endClock := e.cpus[p].Cycles()
	interval := endClock - t.dispatchClock
	t.cycles += interval
	cur := e.cpus[p].ReadCounters()
	wasQuarantined := e.health.quarantined(p)
	n, class := e.health.sanitize(p, e.picBase[p], cur, interval)
	// Propagate any quarantine transition before the scheduler update,
	// so a freshly distrusted CPU skips this interval's model update
	// too (SetQuarantine is idempotent on no change).
	e.sched.SetQuarantine(p, e.health.quarantined(p))
	refsDelta := uint64(cur.Refs - e.picBase[p].Refs)
	hitsDelta := uint64(cur.Hits - e.picBase[p].Hits)
	if e.obs.Tracing() {
		// The interval record goes on the ring before the scheduler
		// update so the trace reads causally: counter reading → model
		// updates → block. The raw delta keeps the modular arithmetic
		// (a reading with hits > refs renders as the huge wrapped value
		// the sanitizer rejected — that is the evidence).
		e.obs.Emit(obs.Event{Time: endClock, Kind: obs.KInterval, CPU: int16(p), Thread: t.id,
			A: refsDelta - hitsDelta, B: n, Arg: uint8(class)})
	}
	if e.monitor != nil {
		// Refresh the blocking thread's out-edges from the inferred
		// coefficients before the dependent updates read them. The
		// edge count is capped so the O(d) switch cost bound holds.
		for _, edge := range e.monitor.EdgesFor(t.id, 0.1, 8) {
			e.noteShare(t.id, edge.To, edge.Q)
		}
	}
	blockMisses := e.cpus[p].Misses()
	e.sched.OnBlock(t.id, p, n)
	if e.OnEvent != nil {
		e.OnEvent(trace.Event{Kind: trace.EvInterval, Interval: trace.Interval{
			CPU: p, Thread: t.id,
			DispatchMisses: t.dispatchMisses, BlockMisses: blockMisses,
			StartRefs: e.picBase[p].Refs, StartHits: e.picBase[p].Hits,
			EndRefs: cur.Refs, EndHits: cur.Hits,
			StartCycles: t.dispatchClock, EndCycles: endClock,
		}})
	}
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{Time: endClock, Kind: obs.KBlock, CPU: int16(p), Thread: t.id,
			A: interval, Arg: uint8(reason)})
	}
	if nowQuarantined := e.health.quarantined(p); nowQuarantined != wasQuarantined {
		kind, counter := obs.KRecover, e.om.recoveries
		if nowQuarantined {
			kind, counter = obs.KQuarantine, e.om.quarantines
		}
		if counter != nil {
			counter.Inc(p)
		}
		if e.obs.Tracing() {
			e.obs.Emit(obs.Event{Time: endClock, Kind: kind, CPU: int16(p), Thread: obs.InvalidThread})
		}
	}
	if e.om.runCycles != nil {
		e.om.runCycles.Observe(p, float64(interval))
		e.om.runMisses.Observe(p, float64(n))
		e.om.cacheRefs.Add(p, refsDelta)
		e.om.cacheHits.Add(p, hitsDelta)
		switch class {
		case ReadingOK:
			e.om.intervalsOK.Inc(p)
		case ReadingSuspect:
			e.om.intervalsSuspect.Inc(p)
		default:
			e.om.intervalsRejected.Inc(p)
		}
	}
	e.overhead.charge(e, p)
	e.running[p] = nil
}

// noteShare writes one sharing edge and mirrors it onto the event
// stream so a recording can rebuild the graph during replay.
func (e *Engine) noteShare(from, to mem.ThreadID, q float64) {
	e.graph.Share(from, to, q)
	if e.OnEvent != nil {
		e.OnEvent(trace.Event{Kind: trace.EvShare, From: from, To: to, Q: q})
	}
}

// handle processes one request from the running thread on p.
func (e *Engine) handle(p int, t *T, req *request) {
	switch req.kind {
	case reqAccess:
		e.plat.Apply(p, t.id, req.batch)

	case reqCompute:
		e.plat.Advance(p, req.n)

	case reqShare:
		if err := annot.CheckAnnotation(req.from, req.to, req.q); err != nil {
			e.fail(p, t, err.Error())
			return
		}
		if !e.opts.DisableAnnotations {
			e.noteShare(req.from, req.to, req.q)
		}
		e.plat.Advance(p, 4)

	case reqAlloc:
		if req.align != 0 && req.align&(req.align-1) != 0 {
			e.fail(p, t, fmt.Sprintf("Alloc with non-power-of-two alignment %d", req.align))
			return
		}
		t.resp.r = e.plat.Alloc(req.size, req.align)
		e.plat.Advance(p, allocInstrs)

	case reqCreate:
		child := e.newThread(req.body, SpawnOpts{Name: req.name, Code: req.code})
		e.sched.Register(child.id)
		if e.OnEvent != nil {
			e.OnEvent(trace.Event{Kind: trace.EvSpawn, Thread: child.id})
		}
		e.noteSpawned(child, e.cpus[p].Cycles(), p)
		e.sched.NoteSpawn(child.id, p)
		e.plat.Advance(p, createInstrs)
		t.resp.tid = child.id
		e.unparkAll(e.cpus[p].Cycles())

	case reqYield:
		e.blockCurrent(p, t, obs.ReasonYield)
		t.status = statusReady
		e.markReady(t, e.cpus[p].Cycles(), p)
		e.sched.MakeRunnable(t.id)
		e.unparkAll(e.cpus[p].Cycles())

	case reqSleep:
		e.blockCurrent(p, t, obs.ReasonSleep)
		t.status = statusBlocked
		t.blockedOn = "sleep"
		e.timerSeq++
		heap.Push(&e.timers, timerEntry{wakeAt: e.cpus[p].Cycles() + req.n, seq: e.timerSeq, tid: t.id})

	case reqJoin:
		if req.tid == t.id {
			e.fail(p, t, "Join of self would deadlock")
			return
		}
		target := e.threads[req.tid]
		if target == nil || target.status == statusDead {
			e.plat.Advance(p, 4) // join of a finished thread: cheap
			return
		}
		e.blockCurrent(p, t, obs.ReasonJoin)
		t.status = statusBlocked
		t.blockedOn = "join " + target.id.String()
		target.joiners = append(target.joiners, t)

	case reqExit:
		e.blockCurrent(p, t, obs.ReasonExit)
		t.status = statusDead
		e.live--
		for _, j := range t.joiners {
			e.wake(p, j)
		}
		t.joiners = nil
		e.graph.RemoveThread(t.id)
		if e.monitor != nil && !e.opts.KeepInferenceHistory {
			e.monitor.Forget(t.id)
		}
		e.sched.Unregister(t.id)
		if e.OnEvent != nil {
			e.OnEvent(trace.Event{Kind: trace.EvExit, Thread: t.id})
		}
		if e.obs.Tracing() {
			e.obs.Emit(obs.Event{Time: e.cpus[p].Cycles(), Kind: obs.KExit, CPU: int16(p), Thread: t.id})
		}
		e.unparkAll(e.cpus[p].Cycles())

	case reqPanic:
		// The thread goroutine is gone; record and stop the world.
		e.running[p] = nil
		t.status = statusDead
		e.sched.Unregister(t.id)
		e.live--
		if e.failure == nil {
			e.failure = fmt.Errorf("rt: thread %v (%s) panicked: %v", t.id, t.name, req.err)
		}

	case reqLock:
		mu := req.mu
		e.plat.Advance(p, syncInstrs)
		// Barging semantics, like real mutexes: a running thread takes
		// a free lock immediately even when woken waiters are still on
		// their way back to a processor. This prevents lock convoys in
		// which an undispatched waiter effectively holds the lock.
		if mu.owner == nil {
			mu.owner = t
			return
		}
		e.blockCurrent(p, t, obs.ReasonLock)
		t.status = statusBlocked
		t.blockedOn = "mutex " + mu.name
		mu.waiters = append(mu.waiters, t)

	case reqUnlock:
		e.plat.Advance(p, syncInstrs)
		e.unlock(p, t, req.mu)

	case reqSemWait:
		s := req.sem
		e.plat.Advance(p, syncInstrs)
		if s.value > 0 {
			s.value--
			return
		}
		e.blockCurrent(p, t, obs.ReasonSem)
		t.status = statusBlocked
		t.blockedOn = "semaphore " + s.name
		s.waiters = append(s.waiters, t)

	case reqSemPost:
		s := req.sem
		e.plat.Advance(p, syncInstrs)
		if len(s.waiters) > 0 {
			w := s.waiters[0]
			s.waiters = s.waiters[1:]
			e.wake(p, w)
		} else {
			s.value++
		}

	case reqBarrier:
		b := req.bar
		e.plat.Advance(p, syncInstrs)
		b.arrived++
		if b.arrived == b.parties {
			b.arrived = 0
			for _, w := range b.waiters {
				e.wake(p, w)
			}
			b.waiters = b.waiters[:0]
			return // the last arrival does not block
		}
		e.blockCurrent(p, t, obs.ReasonBarrier)
		t.status = statusBlocked
		t.blockedOn = fmt.Sprintf("barrier %s (%d/%d arrived)", b.name, b.arrived, b.parties)
		b.waiters = append(b.waiters, t)

	case reqCondWait:
		c, mu := req.cond, req.mu
		if mu.owner != t {
			e.fail(p, t, "CondWait without holding the mutex")
			return
		}
		e.plat.Advance(p, syncInstrs)
		e.blockCurrent(p, t, obs.ReasonCond)
		t.status = statusBlocked
		t.blockedOn = "cond " + c.name
		c.waiters = append(c.waiters, condWaiter{t: t, mu: mu})
		e.unlock(p, nil, mu) // owner already validated

	case reqCondSignal:
		e.plat.Advance(p, syncInstrs)
		e.signalOne(p, req.cond)

	case reqCondBroadcast:
		e.plat.Advance(p, syncInstrs)
		for len(req.cond.waiters) > 0 {
			e.signalOne(p, req.cond)
		}

	default:
		// Invariant: the request enum is closed; the thread API builds
		// every request.
		panic(fmt.Sprintf("rt: unknown request kind %d", req.kind))
	}
}

// unlock releases mu on behalf of t (t may be nil when the owner was
// already validated, as in CondWait). The lock becomes free and the
// oldest waiter is woken to retry; ownership is not handed off, so a
// running thread can barge in while the waiter travels back to a
// processor (the waiter then re-blocks at the front of the queue).
func (e *Engine) unlock(p int, t *T, mu *Mutex) {
	if t != nil && mu.owner != t {
		e.fail(p, t, "Unlock of a mutex not held")
		return
	}
	mu.owner = nil
	if len(mu.waiters) > 0 {
		next := mu.waiters[0]
		mu.waiters = mu.waiters[1:]
		next.retryLock = mu
		e.wake(p, next)
	}
}

// signalOne moves the oldest cond waiter toward running: it either
// reacquires the mutex immediately or queues on it.
func (e *Engine) signalOne(p int, c *Cond) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	if w.mu.owner == nil {
		// Same barging discipline as unlock: the thread is woken to
		// retry the acquisition rather than granted a lock it cannot
		// use until dispatched.
		w.t.retryLock = w.mu
		e.wake(p, w.t)
	} else {
		w.mu.waiters = append(w.mu.waiters, w.t)
	}
}

// wake marks a blocked thread runnable. p is the CPU whose engine-step
// performed the wake (trace ring placement only — the thread may run
// anywhere).
func (e *Engine) wake(p int, t *T) {
	if t.status != statusBlocked {
		// Invariant: sync objects only enqueue blocked threads.
		panic(fmt.Sprintf("rt: waking thread %v in status %v", t.id, t.status))
	}
	t.status = statusReady
	e.markReady(t, e.now, p)
	e.sched.MakeRunnable(t.id)
	e.unparkAll(e.now)
}

// markReady stamps the moment a thread became runnable (the dispatch
// latency reference) and mirrors it onto the trace.
func (e *Engine) markReady(t *T, now uint64, cpu int) {
	t.readyClock = now
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{Time: now, Kind: obs.KWake, CPU: int16(cpu), Thread: t.id})
	}
}

// fail records a programming error detected inside a request (the
// simulated program misused a primitive) and stops the run.
func (e *Engine) fail(p int, t *T, msg string) {
	name := "?"
	var id mem.ThreadID = -1
	if t != nil {
		name, id = t.name, t.id
	}
	if e.failure == nil {
		e.failure = fmt.Errorf("rt: thread %v (%s): %s", id, name, msg)
	}
	_ = p
}

// describeDeadlock builds the diagnostic for a deadlocked system.
func (e *Engine) describeDeadlock() error {
	var blocked []string
	ids := make([]int, 0, len(e.threads))
	for id := range e.threads {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := e.threads[mem.ThreadID(id)]
		if t.status == statusBlocked {
			blocked = append(blocked, fmt.Sprintf("%v(%s) waiting on %s", t.id, t.name, t.blockedOn))
		}
	}
	return fmt.Errorf("%w: %v", ErrDeadlock, blocked)
}

// killRemaining unwinds every live thread goroutine after Run finishes
// (normally or on error) so the process leaks nothing.
func (e *Engine) killRemaining() {
	for _, t := range e.threads {
		if t.status == statusDead {
			continue
		}
		t.kill()
		t.status = statusDead
	}
	e.live = 0
}

// timerEntry is one pending sleep deadline.
type timerEntry struct {
	wakeAt uint64
	seq    uint64 // FIFO among equal deadlines, for determinism
	tid    mem.ThreadID
}

type timerQueue []timerEntry

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].wakeAt != q[j].wakeAt {
		return q[i].wakeAt < q[j].wakeAt
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x any)   { *q = append(*q, x.(timerEntry)) }
func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
