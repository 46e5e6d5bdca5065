package rt

import (
	"repro/internal/mem"
	"repro/internal/xrand"
)

// status is the engine's view of a thread's lifecycle.
type status int

const (
	statusReady status = iota
	statusRunning
	statusBlocked
	statusDead
)

func (s status) String() string {
	switch s {
	case statusReady:
		return "ready"
	case statusRunning:
		return "running"
	case statusBlocked:
		return "blocked"
	default:
		return "dead"
	}
}

// reqKind enumerates the services a thread can request from the engine.
type reqKind int

const (
	reqAccess reqKind = iota
	reqCompute
	reqShare
	reqAlloc
	reqCreate
	reqYield
	reqSleep
	reqJoin
	reqExit
	reqPanic
	reqLock
	reqUnlock
	reqSemWait
	reqSemPost
	reqBarrier
	reqCondWait
	reqCondSignal
	reqCondBroadcast
)

// request carries one thread-to-engine call. A single request value per
// thread is reused for every call; the engine reads it on the thread's
// own goroutine, inside that call.
type request struct {
	kind  reqKind
	batch mem.Batch
	n     uint64
	tid   mem.ThreadID
	body  func(*T)
	name  string
	code  mem.Range
	from  mem.ThreadID
	to    mem.ThreadID
	q     float64
	size  uint64
	align uint64
	mu    *Mutex
	sem   *Semaphore
	bar   *Barrier
	cond  *Cond
	err   any
}

// response carries engine-to-thread results, read when the call returns.
type response struct {
	tid mem.ThreadID
	r   mem.Range
}

// killedSentinel unwinds a thread goroutine during engine teardown.
type killedSentinel struct{}

// accessBufferCap bounds the number of buffered accesses before an
// automatic flush — one engine request per this many access
// descriptors.
const accessBufferCap = 512

// T is the thread handle passed to every thread body: the Active
// Threads API surface. All methods must be called from the thread's own
// body function (they run the engine on the calling goroutine); the
// zero value is not usable.
type T struct {
	id   mem.ThreadID
	name string
	eng  *Engine
	body func(*T)
	code mem.Range

	toThread chan struct{}
	req      request
	resp     response
	die      bool

	status status
	cpu    int
	// blockedOn names what a blocked thread is waiting for (deadlock
	// diagnostics).
	blockedOn string
	joiners   []*T
	rng       *xrand.Source
	// retryLock is set while the thread has been woken to re-attempt a
	// mutex acquisition (barging semantics; see Engine.unlock).
	retryLock *Mutex
	// cycles/dispatchClock/dispatchCount implement per-thread CPU-time
	// accounting (see Snapshot.Threads).
	cycles        uint64
	dispatchClock uint64
	dispatchCount uint64
	// dispatchMisses is the processor's 64-bit miss count at the last
	// NoteDispatch — the decay reference the interval record carries.
	dispatchMisses uint64
	// readyClock is the virtual clock at which the thread last became
	// runnable — the reference for the observability layer's dispatch
	// latency.
	readyClock uint64

	pending mem.Batch // buffered accesses, flushed lazily
}

// run is the thread goroutine: wait for first dispatch, execute the
// body, convert its completion (or panic) into a final request, and
// pass the baton on without parking.
func (t *T) run() {
	<-t.toThread
	if t.die {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killedSentinel); killed {
				return
			}
			t.req = request{kind: reqPanic, err: r}
			t.eng.pass(t.eng.turn(t))
			return
		}
		// Normal completion. The final flush is itself a request, so a
		// teardown kill can land inside it; swallow only the kill.
		defer func() {
			if r := recover(); r != nil {
				if _, killed := r.(killedSentinel); !killed {
					panic(r) // user panic: re-raise for the engine to report
				}
			}
		}()
		t.flush()
		t.req = request{kind: reqExit}
		t.eng.pass(t.eng.turn(t))
	}()
	t.body(t)
}

// call performs the prepared request. The thread holds the baton, so
// it handles the request itself and runs the engine loop to the next
// step: a repeat step of this thread just returns; otherwise the baton
// goes to the next thread (or back to Run) and this goroutine parks
// until its next step.
func (t *T) call() {
	if t.die {
		// A body's deferred call during teardown unwinding must not
		// touch the engine again.
		panic(killedSentinel{})
	}
	next := t.eng.turn(t)
	if next == t {
		return
	}
	t.eng.pass(next)
	<-t.toThread
	if t.die {
		// Teardown: unwind this coroutine; recovered by the body wrapper.
		panic(killedSentinel{})
	}
}

// kill unwinds a parked (or not-yet-started) thread goroutine. Called
// only by Run during teardown.
func (t *T) kill() {
	t.die = true
	t.toThread <- struct{}{}
}

// ID returns the thread's identifier (at_self in Active Threads).
func (t *T) ID() mem.ThreadID { return t.id }

// Name returns the thread's diagnostic label.
func (t *T) Name() string { return t.name }

// Rand returns the thread's private deterministic random stream.
func (t *T) Rand() *xrand.Source { return t.rng }

// Now returns the current cycle count of the thread's processor, after
// flushing any buffered accesses so the reading reflects them. Reading
// the clock is free (the real runtime reads the TICK register).
func (t *T) Now() uint64 {
	t.flush()
	return t.eng.cpus[t.cpu].Cycles()
}

// flush sends any buffered accesses to the machine.
func (t *T) flush() {
	if len(t.pending) == 0 {
		return
	}
	t.req = request{kind: reqAccess, batch: t.pending}
	t.call()
	t.pending = t.pending[:0]
}

// Access queues one access descriptor; descriptors are applied in order
// and flushed automatically (or at the next scheduling point).
func (t *T) Access(a mem.Access) {
	if a.Count <= 0 {
		return
	}
	t.pending = append(t.pending, a)
	if len(t.pending) >= accessBufferCap {
		t.flush()
	}
}

// ReadRange reads [base, base+n) sequentially in 8-byte words.
func (t *T) ReadRange(base mem.Addr, n uint64) { t.Access(mem.ReadRange(base, int64(n))) }

// WriteRange writes [base, base+n) sequentially in 8-byte words.
func (t *T) WriteRange(base mem.Addr, n uint64) { t.Access(mem.WriteRange(base, int64(n))) }

// Read performs count 8-byte reads starting at base with the given byte
// stride.
func (t *T) Read(base mem.Addr, count, stride int32) { t.Access(mem.Read(base, count, stride, 8)) }

// Write performs count 8-byte writes starting at base with the given
// byte stride.
func (t *T) Write(base mem.Addr, count, stride int32) { t.Access(mem.Write(base, count, stride, 8)) }

// Touch reads one word from each cache line of r — the cheapest way for
// a thread to establish a region in its working set.
func (t *T) Touch(r mem.Range) {
	lineSize := int32(t.eng.plat.LineBytes())
	lines := int32(r.Lines(uint64(lineSize)))
	t.Access(mem.Access{Base: r.Base, Count: lines, Stride: lineSize, Size: 8})
}

// Compute charges n instructions of pure computation (no memory
// traffic beyond what the caches already hold).
func (t *T) Compute(n uint64) {
	if n == 0 {
		return
	}
	t.flush()
	t.req = request{kind: reqCompute, n: n}
	t.call()
}

// Alloc reserves size bytes of simulated address space (line-aligned).
func (t *T) Alloc(size uint64) mem.Range { return t.AllocAligned(size, 0) }

// AllocAligned reserves size bytes with the given alignment.
func (t *T) AllocAligned(size, align uint64) mem.Range {
	t.flush()
	t.req = request{kind: reqAlloc, size: size, align: align}
	t.call()
	return t.resp.r
}

// Share records the at_share(from, to, q) annotation: a fraction q of
// thread from's state is shared with thread to. Annotations are hints;
// they never affect program correctness.
func (t *T) Share(from, to mem.ThreadID, q float64) {
	t.flush()
	t.req = request{kind: reqShare, from: from, to: to, q: q}
	t.call()
}

// ShareWith annotates that a fraction q of t's own state is shared with
// thread other (at_share(self, other, q)).
func (t *T) ShareWith(other mem.ThreadID, q float64) { t.Share(t.id, other, q) }

// Create spawns a child thread running body (at_create). The child
// becomes runnable immediately; the parent continues without a
// scheduling point, exactly as in Active Threads.
func (t *T) Create(name string, body func(*T)) mem.ThreadID {
	return t.CreateOpts(name, body, SpawnOpts{})
}

// CreateOpts spawns a child with explicit options.
func (t *T) CreateOpts(name string, body func(*T), opts SpawnOpts) mem.ThreadID {
	t.flush()
	code := opts.Code
	if code.Len == 0 {
		code = t.code // children inherit the parent's text by default
	}
	t.req = request{kind: reqCreate, body: body, name: name, code: code}
	t.call()
	return t.resp.tid
}

// Yield releases the processor voluntarily; the thread stays runnable.
func (t *T) Yield() {
	t.flush()
	t.req = request{kind: reqYield}
	t.call()
}

// Sleep blocks the thread for the given number of cycles.
func (t *T) Sleep(cycles uint64) {
	t.flush()
	t.req = request{kind: reqSleep, n: cycles}
	t.call()
}

// Join blocks until the target thread exits. Joining an already-exited
// (or never-existing) thread returns immediately; joining yourself is a
// programming error that aborts the run.
func (t *T) Join(tid mem.ThreadID) {
	t.flush()
	t.req = request{kind: reqJoin, tid: tid}
	t.call()
}

// Lock acquires mu, blocking while another thread holds it. Waiters are
// served FIFO.
func (t *T) Lock(mu *Mutex) {
	t.flush()
	t.req = request{kind: reqLock, mu: mu}
	t.call()
}

// Unlock releases mu. Unlocking a mutex the thread does not hold is a
// programming error that aborts the run.
func (t *T) Unlock(mu *Mutex) {
	t.flush()
	t.req = request{kind: reqUnlock, mu: mu}
	t.call()
}

// SemWait performs P(sem), blocking while the count is zero.
func (t *T) SemWait(sem *Semaphore) {
	t.flush()
	t.req = request{kind: reqSemWait, sem: sem}
	t.call()
}

// SemPost performs V(sem), waking the oldest waiter if any.
func (t *T) SemPost(sem *Semaphore) {
	t.flush()
	t.req = request{kind: reqSemPost, sem: sem}
	t.call()
}

// BarrierWait blocks until all parties have arrived at the barrier; the
// barrier then resets for reuse.
func (t *T) BarrierWait(b *Barrier) {
	t.flush()
	t.req = request{kind: reqBarrier, bar: b}
	t.call()
}

// CondWait atomically releases mu and blocks on c; on wakeup the thread
// again holds mu.
func (t *T) CondWait(c *Cond, mu *Mutex) {
	t.flush()
	t.req = request{kind: reqCondWait, cond: c, mu: mu}
	t.call()
}

// CondSignal wakes the oldest waiter on c, if any.
func (t *T) CondSignal(c *Cond) {
	t.flush()
	t.req = request{kind: reqCondSignal, cond: c}
	t.call()
}

// CondBroadcast wakes every waiter on c.
func (t *T) CondBroadcast(c *Cond) {
	t.flush()
	t.req = request{kind: reqCondBroadcast, cond: c}
	t.call()
}
