package rt

// The stall watchdog guards long unattended runs against silent
// livelock: a workload spinning through engine steps without ever
// reaching a scheduling point (a thread computing forever, a
// yield-storm that dispatches nobody new) makes wall-clock progress
// indistinguishable from useful work. The watchdog samples dispatch
// progress on a wall-clock ticker from its own goroutine; when a full
// deadline passes with no dispatch it raises a flag, and the engine
// loop — which keeps spinning in exactly the stalled scenarios the
// watchdog exists for — turns the flag into a diagnostic error: the
// per-CPU clocks and installed threads, every blocked thread with what
// it waits on, the runnable count, and quarantine state, plus a KStall
// event and an rt_stalls_total bump on the observer. Wall time never
// touches the simulation: the watchdog only reads the progress
// counter, so goldens are identical with it armed.
//
// Limitation, by design: a thread body stuck inside host code (an
// infinite Go loop that never issues an engine request) holds the run
// loop's baton forever, so no goroutine reaches a flag check and Run
// waits for a baton that never comes back. Only the step-spinning
// class of stalls is recoverable from inside the process; a body stuck
// in host code needs the process killed, after which atsimd's restart
// resumes every other session from its last boundary.
//
// The clock stops while the engine is inside OnCheckpoint: a host that
// parks the engine there (atsimd's boundary gate holds an idle session
// in the callback until its next step) is waiting, not stalled. Only
// unpaused wall time counts toward the deadline; returning from the
// callback is not progress, so a thread that computes forever still
// trips the watchdog however often it crosses a boundary.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
)

// watchdog watches a progress counter from a side goroutine.
type watchdog struct {
	timeout  time.Duration
	progress atomic.Uint64
	stalled  atomic.Bool
	done     chan struct{}

	mu        sync.Mutex
	pausedAt  time.Time     // start of the current pause; zero while running
	pausedFor time.Duration // total length of the pauses that ended
}

func newWatchdog(timeout time.Duration) *watchdog {
	return &watchdog{timeout: timeout, done: make(chan struct{})}
}

// start launches the sampling goroutine. A stall is declared when the
// progress counter stays unchanged for a full timeout of unpaused wall
// time (so, with no pauses, detection latency is between one and two
// timeouts).
func (w *watchdog) start() {
	go func() {
		tick := time.NewTicker(w.timeout)
		defer tick.Stop()
		last := w.progress.Load()
		since, sincePaused := time.Now(), w.paused(time.Now())
		for {
			select {
			case <-w.done:
				return
			case now := <-tick.C:
				if cur := w.progress.Load(); cur != last {
					last, since, sincePaused = cur, now, w.paused(now)
					continue
				}
				if now.Sub(since)-(w.paused(now)-sincePaused) >= w.timeout {
					w.stalled.Store(true)
					return
				}
			}
		}
	}()
}

// paused returns the total wall time spent paused up to now.
func (w *watchdog) paused(now time.Time) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.pausedFor
	if !w.pausedAt.IsZero() && now.After(w.pausedAt) {
		d += now.Sub(w.pausedAt)
	}
	return d
}

// stop terminates the sampling goroutine (idempotent per watchdog; the
// engine creates a fresh watchdog per Run).
func (w *watchdog) stop() { close(w.done) }

// noteProgress is bumped once per dispatch — the engine's definition
// of forward progress.
func (w *watchdog) noteProgress() { w.progress.Add(1) }

// tripped reports whether the deadline passed without progress.
// Nil-safe so the run loop pays one nil-check when the watchdog is
// off.
func (w *watchdog) tripped() bool { return w != nil && w.stalled.Load() }

// pause stops the clock for a host callback and resume restarts it;
// the paused time is subtracted from the deadline, not counted as
// progress. Both are nil-safe.
func (w *watchdog) pause() {
	if w != nil {
		w.mu.Lock()
		w.pausedAt = time.Now()
		w.mu.Unlock()
	}
}

func (w *watchdog) resume() {
	if w != nil {
		w.mu.Lock()
		w.pausedFor += time.Since(w.pausedAt)
		w.pausedAt = time.Time{}
		w.mu.Unlock()
	}
}

// stallError emits the stall diagnostics on the observer and builds
// the descriptive error Run returns: a dump of exactly the state
// needed to see WHY nothing dispatches.
func (e *Engine) stallError() error {
	if e.om.stalls != nil {
		e.om.stalls.Inc(0)
	}
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{Time: e.now, Kind: obs.KStall, CPU: 0,
			Thread: obs.InvalidThread, A: e.totalDispatches(), B: e.steps})
	}
	var b strings.Builder
	for p := range e.cpus {
		state := "idle"
		if e.parked[p] {
			state = "parked"
		}
		if t := e.running[p]; t != nil {
			state = fmt.Sprintf("running %v(%s)", t.id, t.name)
		}
		if e.health.quarantined(p) {
			state += ", quarantined"
		}
		fmt.Fprintf(&b, "  cpu %d: clock %d, %s\n", p, e.cpus[p].Cycles(), state)
	}
	ids := make([]int, 0, len(e.threads))
	for id := range e.threads {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	blocked := 0
	for _, id := range ids {
		if t := e.threads[mem.ThreadID(id)]; t.status == statusBlocked {
			fmt.Fprintf(&b, "  %v(%s) blocked on %s\n", t.id, t.name, t.blockedOn)
			blocked++
		}
	}
	fmt.Fprintf(&b, "  %d live threads, %d blocked, %d runnable, %d timers pending",
		e.live, blocked, e.sched.RunnableCount(), e.timers.Len())
	return fmt.Errorf("rt: stalled: no dispatch in %v of wall time (step %d, cycle %d, %d dispatches so far); state:\n%s",
		e.opts.StallTimeout, e.steps, e.now, e.totalDispatches(), b.String())
}
