package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/xrand"
)

// Test configuration: the tasks app at cpus=2 scale=0.05 runs ~543k
// virtual cycles in a few ms of wall time; quantum 50k gives each
// session ~10 boundaries, so steps, evictions and resumes all have
// room to interleave while the whole suite stays fast.

func testConfig(dir string) Config {
	return Config{
		DataDir:        dir,
		MaxLive:        4,
		Workers:        2,
		StallTimeout:   10 * time.Second,
		DefaultQuantum: 50_000,
		EnableChaos:    true,
	}
}

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := testConfig(t.TempDir())
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx) // double shutdown after an explicit one is a reported, harmless error
	})
	return s
}

func testSessionConfig(seed uint64) SessionConfig {
	return SessionConfig{App: "tasks", Policy: "LFF", CPUs: 2, Scale: 0.05,
		Seed: seed, Quantum: 50_000}
}

func mustCreate(t *testing.T, s *Server, tenant string, cfg SessionConfig) Info {
	t.Helper()
	info, err := s.CreateSession(context.Background(), tenant, cfg)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	return info
}

func mustFinish(t *testing.T, s *Server, id string) StepResult {
	t.Helper()
	res, err := s.Step(context.Background(), id, 0)
	if err != nil {
		t.Fatalf("Step(%s, 0): %v", id, err)
	}
	if res.State != StateDone || res.Result == nil {
		t.Fatalf("session %s finished in state %q (failure: %s)", id, res.State, res.Failure)
	}
	return res
}

// TestStepToCompletion pins the basic lifecycle: one unlimited step
// runs the workload to done with a result and a plausible boundary
// count.
func TestStepToCompletion(t *testing.T) {
	s := newTestServer(t, nil)
	info := mustCreate(t, s, "", testSessionConfig(101))
	res := mustFinish(t, s, info.ID)
	if len(res.Result.Fingerprint) != 16 {
		t.Errorf("fingerprint %q, want 16 hex chars", res.Result.Fingerprint)
	}
	if res.Boundaries < 5 {
		t.Errorf("crossed %d boundaries, want >= 5 (quantum too coarse?)", res.Boundaries)
	}
	if res.Result.Cycles == 0 || res.Result.Instrs == 0 {
		t.Errorf("empty result: %+v", res.Result)
	}
	// Stepping a done session reports the result again, idempotently.
	again, err := s.Step(context.Background(), info.ID, 1)
	if err != nil || again.State != StateDone || again.Result.Fingerprint != res.Result.Fingerprint {
		t.Errorf("step-after-done = %+v, %v; want same done result", again, err)
	}
}

// TestSessionByteIdentity is the service-level determinism gate: a
// session stepped one boundary at a time and evicted to disk between
// every step must finish with the SAME fingerprint as an uninterrupted
// twin of the same config — byte identity across any number of
// evict/resume cycles.
func TestSessionByteIdentity(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()

	control := mustCreate(t, s, "", testSessionConfig(202))
	want := mustFinish(t, s, control.ID).Result.Fingerprint

	chopped := mustCreate(t, s, "", testSessionConfig(202))
	var got string
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("session did not complete in 100 single-boundary steps")
		}
		res, err := s.Step(ctx, chopped.ID, 1)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.State == StateDone {
			got = res.Result.Fingerprint
			break
		}
		if _, err := s.Evict(ctx, chopped.ID); err != nil {
			t.Fatalf("evict after step %d: %v", i, err)
		}
	}
	if got != want {
		t.Errorf("chopped fingerprint %s != control %s", got, want)
	}
	info, _ := s.Get(chopped.ID)
	if info.Evictions == 0 || info.Resumes == 0 {
		t.Errorf("expected a scarred history, got evictions=%d resumes=%d", info.Evictions, info.Resumes)
	}
}

// TestEvictWhileStepping races explicit evictions against an unlimited
// in-flight step: the step must absorb every eviction (resume and
// continue transparently) and still produce the control fingerprint.
func TestEvictWhileStepping(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()

	control := mustCreate(t, s, "", testSessionConfig(303))
	want := mustFinish(t, s, control.ID).Result.Fingerprint

	victim := mustCreate(t, s, "", testSessionConfig(303))
	done := make(chan StepResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := s.Step(ctx, victim.ID, 0)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	// Hammer evictions while the step runs; each one forces an unwind
	// at a boundary and a deterministic fast-forward resume.
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		if _, err := s.Evict(ctx, victim.ID); err != nil {
			t.Fatalf("evict %d: %v", i, err)
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("step: %v", err)
	case res := <-done:
		if res.State != StateDone || res.Result.Fingerprint != want {
			t.Errorf("stepped-under-eviction result %+v, want done with fingerprint %s", res, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("step did not complete")
	}
}

// TestPanicIsolation pins crash isolation: an injected engine panic
// fails exactly that session — with the stack in its diagnostic —
// while the server keeps serving and other sessions complete.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, nil)

	poison := testSessionConfig(404)
	poison.PanicAtBoundary = 2
	bad := mustCreate(t, s, "", poison)
	res, err := s.Step(context.Background(), bad.ID, 0)
	if err != nil {
		t.Fatalf("step poisoned: %v", err)
	}
	if res.State != StateFailed {
		t.Fatalf("poisoned session state %q, want failed", res.State)
	}
	if !strings.Contains(res.Failure, "chaos: injected panic at boundary 2") {
		t.Errorf("failure %q does not name the panic", firstLine(res.Failure))
	}
	if !strings.Contains(res.Failure, "goroutine") {
		t.Errorf("failure does not carry a stack trace")
	}
	// Steps on a failed session keep reporting the failure, and never
	// resurrect an engine.
	res2, err := s.Step(context.Background(), bad.ID, 1)
	if err != nil || res2.State != StateFailed {
		t.Errorf("step-after-failure = %+v, %v; want failed", res2, err)
	}
	// The blast radius is one session.
	good := mustCreate(t, s, "", testSessionConfig(405))
	mustFinish(t, s, good.ID)
	if s.met.panicsRecovered.Value() == 0 {
		t.Errorf("panics_recovered_total = 0, want >= 1")
	}
}

// TestChaosWithoutOptIn pins that fault injection is admission-gated.
func TestChaosWithoutOptIn(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EnableChaos = false })
	poison := testSessionConfig(1)
	poison.PanicAtBoundary = 1
	_, err := s.CreateSession(context.Background(), "", poison)
	var val *ValidationError
	if !errors.As(err, &val) {
		t.Fatalf("create with chaos disabled = %v, want ValidationError", err)
	}
}

// TestAdmission pins the control plane: session capacity, tenant
// quotas, LRU eviction of parked sessions, and 429-style overload when
// every live slot is genuinely busy.
func TestAdmission(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		s := newTestServer(t, func(c *Config) { c.MaxSessions = 2 })
		mustCreate(t, s, "", testSessionConfig(1))
		mustCreate(t, s, "", testSessionConfig(2))
		_, err := s.CreateSession(context.Background(), "", testSessionConfig(3))
		var over *OverloadError
		if !errors.As(err, &over) || over.Quota {
			t.Fatalf("create past capacity = %v, want non-quota OverloadError", err)
		}
		if over.RetryAfter <= 0 {
			t.Errorf("RetryAfter = %v, want > 0", over.RetryAfter)
		}
	})
	t.Run("tenant quota", func(t *testing.T) {
		s := newTestServer(t, func(c *Config) { c.TenantQuota = 1 })
		mustCreate(t, s, "alice", testSessionConfig(1))
		_, err := s.CreateSession(context.Background(), "alice", testSessionConfig(2))
		var over *OverloadError
		if !errors.As(err, &over) || !over.Quota {
			t.Fatalf("create past tenant quota = %v, want quota OverloadError", err)
		}
		// Quotas are per tenant: bob is unaffected.
		mustCreate(t, s, "bob", testSessionConfig(3))
	})
	t.Run("lru eviction and busy overload", func(t *testing.T) {
		s := newTestServer(t, func(c *Config) { c.MaxLive = 1 })
		ctx := context.Background()
		a := mustCreate(t, s, "", testSessionConfig(1))
		b := mustCreate(t, s, "", testSessionConfig(2))
		if _, err := s.Step(ctx, a.ID, 1); err != nil {
			t.Fatalf("step a: %v", err)
		}
		sessA, _ := s.lookup(a.ID)
		sessA.mu.Lock()
		leA := sessA.live
		sessA.mu.Unlock()
		if leA == nil {
			t.Fatal("session a has no resident engine after a step")
		}
		// Step returns only once a's engine is parked at its gate,
		// never while it still reads busy.
		if got := leA.phase.Load(); got != engineParked {
			t.Fatalf("after Step, a's engine phase = %d, want parked (%d)", got, engineParked)
		}
		// Pretend it is mid-step: a busy engine must never be chosen as
		// an eviction victim, so b gets backpressure instead.
		leA.phase.Store(engineBusy)
		_, err := s.Step(ctx, b.ID, 1)
		var over *OverloadError
		if !errors.As(err, &over) {
			t.Fatalf("step with all slots busy = %v, want OverloadError", err)
		}
		// Parked again, a is fair game: b's step evicts it (LRU) and
		// proceeds.
		leA.phase.Store(engineParked)
		if _, err := s.Step(ctx, b.ID, 1); err != nil {
			t.Fatalf("step b after unbusy: %v", err)
		}
		if info, _ := s.Get(a.ID); info.State != StateIdle || info.Evictions != 1 {
			t.Errorf("victim a = state %q evictions %d, want idle/1", info.State, info.Evictions)
		}
		// And the evicted session still finishes correctly.
		mustFinish(t, s, a.ID)
	})
}

// TestEvictedGrantsKeepBudget pins the eviction/grant race: when an
// engine unwinds with grants still queued (or accepted but never
// started), each one must be answered with ITS OWN unexecuted budget.
// Regression: the drain loop used to answer queued grants with the
// in-flight grant's residue — 0 — which Step then retried as "run to
// completion", silently unbounding a 1-quantum request.
func TestEvictedGrantsKeepBudget(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	ctx := context.Background()
	info := mustCreate(t, s, "", testSessionConfig(42))
	if _, err := s.Step(ctx, info.ID, 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	sess, _ := s.lookup(info.ID)
	sess.mu.Lock()
	le := sess.live
	sess.mu.Unlock()
	if le == nil {
		t.Fatal("no resident engine after a step")
	}
	// Occupy the only compute token so an accepted grant blocks before
	// executing, then queue two grants: the first becomes current, the
	// second sits untouched in the channel.
	s.tokens <- struct{}{}
	g1 := &grant{quanta: 2, outcome: make(chan stepOutcome, 1)}
	g2 := &grant{quanta: 3, outcome: make(chan stepOutcome, 1)}
	le.grants <- g1
	le.grants <- g2
	deadline := time.Now().Add(10 * time.Second)
	for le.phase.Load() != engineBusy {
		if time.Now().After(deadline) {
			t.Fatal("engine never accepted the first grant")
		}
		time.Sleep(time.Millisecond)
	}
	le.requestStop()
	<-le.done
	<-s.tokens
	for i, want := range map[*grant]uint64{g1: 2, g2: 3} {
		out := <-i.outcome
		if !out.evicted || out.state != StateIdle {
			t.Fatalf("grant outcome = %+v, want evicted idle", out)
		}
		if out.remaining != want {
			t.Errorf("grant with budget %d answered with remaining %d; retrying that loses the bound", want, out.remaining)
		}
	}
	// The session is intact and still finishes.
	mustFinish(t, s, info.ID)
}

// TestDeletePersistRace pins the delete tombstone against concurrent
// persists: no interleaving of Delete with a slow manifest/snapshot
// write may leave the session's files on disk (they would resurrect as
// a resident session on restart). Run under -race.
func TestDeletePersistRace(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		info := mustCreate(t, s, "", testSessionConfig(1000+uint64(i)))
		sess, err := s.lookup(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 5; j++ {
				sess.mu.Lock()
				sess.gen++ // keep the manifest dirty so every persist writes
				sess.mu.Unlock()
				_ = s.persistManifest(sess)
			}
		}()
		if err := s.Delete(ctx, info.ID); err != nil {
			t.Fatalf("delete: %v", err)
		}
		<-done
		if _, err := os.Stat(s.store.manifestPath(info.ID)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("iteration %d: manifest resurrected after delete (stat err %v)", i, err)
		}
		if _, err := os.Stat(s.store.snapPath(info.ID)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("iteration %d: snapshot resurrected after delete (stat err %v)", i, err)
		}
	}
}

// TestCorruptManifestQuarantined pins boot resilience: one unparseable
// manifest in the data directory must not fail New — it is renamed to
// .corrupt and every other session restores normally.
func TestCorruptManifestQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	good := mustCreate(t, s1, "", testSessionConfig(77))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	bad := filepath.Join(dir, "s-999999.json")
	if err := os.WriteFile(bad, []byte("{this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New with corrupt manifest in dir: %v", err)
	}
	t.Cleanup(func() {
		c, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s2.Shutdown(c)
	})
	if got := len(s2.List()); got != 1 {
		t.Errorf("restored %d sessions, want 1 (the healthy one)", got)
	}
	if _, err := s2.Get(good.ID); err != nil {
		t.Errorf("healthy session lost: %v", err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt manifest still in scan namespace (stat err %v)", err)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	if s2.met.quarantined.Value() != 1 {
		t.Errorf("manifests_quarantined_total = %v, want 1", s2.met.quarantined.Value())
	}
}

// TestStepDeadline pins deadline behavior: a step that cannot get
// compute before its context expires returns a DeadlineError (504),
// while the session itself stays healthy and completes later.
func TestStepDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	info := mustCreate(t, s, "", testSessionConfig(7))
	// Occupy the only compute token so the engine cannot start.
	s.tokens <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := s.Step(ctx, info.ID, 1)
	var dead *DeadlineError
	if !errors.As(err, &dead) {
		t.Fatalf("starved step = %v, want DeadlineError", err)
	}
	<-s.tokens // release compute
	// Server-side progress was only deferred, not lost.
	mustFinish(t, s, info.ID)
}

// TestDelete pins removal: files gone, 404 afterwards, a live engine
// stopped first.
func TestDelete(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	info := mustCreate(t, s, "", testSessionConfig(5))
	if _, err := s.Step(ctx, info.ID, 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	if err := s.Delete(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete = %v, want ErrNotFound", err)
	}
	if _, err := s.Step(ctx, info.ID, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("step after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete(ctx, info.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
}

// TestRestartRestores is the graceful-restart gate: shut a server
// down mid-flight and restore every session — idle ones with their
// disk snapshots, done ones with their results — in a fresh server
// over the same directory, finishing to control-identical
// fingerprints.
func TestRestartRestores(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var partial [3]Info
	for i := range partial {
		partial[i] = mustCreate(t, s1, "t1", testSessionConfig(600+uint64(i)))
		if _, err := s1.Step(ctx, partial[i].ID, 2); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	finished := mustCreate(t, s1, "t2", testSessionConfig(700))
	doneRes := mustFinish(t, s1, finished.ID)
	shutCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New over restored dir: %v", err)
	}
	t.Cleanup(func() {
		c, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s2.Shutdown(c)
	})
	if got := len(s2.List()); got != 4 {
		t.Fatalf("restored %d sessions, want 4", got)
	}
	// The finished session restored with its result intact.
	if info, err := s2.Get(finished.ID); err != nil || info.State != StateDone ||
		info.Result == nil || info.Result.Fingerprint != doneRes.Result.Fingerprint {
		t.Errorf("restored done session = %+v, %v; want done with fingerprint %s",
			info, err, doneRes.Result.Fingerprint)
	}
	// Partially-stepped sessions restored idle with progress, and
	// finish byte-identically to fresh uninterrupted twins.
	for i := range partial {
		info, err := s2.Get(partial[i].ID)
		if err != nil || info.State != StateIdle || info.Boundaries != 2 {
			t.Fatalf("restored session %s = %+v, %v; want idle with 2 boundaries", partial[i].ID, info, err)
		}
		got := mustFinish(t, s2, partial[i].ID).Result.Fingerprint
		twin := mustCreate(t, s2, "", testSessionConfig(600+uint64(i)))
		want := mustFinish(t, s2, twin.ID).Result.Fingerprint
		if got != want {
			t.Errorf("restored session %d fingerprint %s != twin %s", i, got, want)
		}
	}
	// New sessions continue the ID sequence without collisions.
	fresh := mustCreate(t, s2, "", testSessionConfig(999))
	if _, err := s2.Get(fresh.ID); err != nil {
		t.Errorf("fresh session after restore: %v", err)
	}
}

// TestDrainingRejectsWork pins overload semantics during shutdown: a
// draining server 503s new work instead of hanging it.
func TestDrainingRejectsWork(t *testing.T) {
	s := newTestServer(t, nil)
	info := mustCreate(t, s, "", testSessionConfig(8))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.CreateSession(ctx, "", testSessionConfig(9)); !errors.Is(err, ErrDraining) {
		t.Errorf("create while draining = %v, want ErrDraining", err)
	}
	if _, err := s.Step(ctx, info.ID, 1); !errors.Is(err, ErrDraining) {
		t.Errorf("step while draining = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Errorf("Draining() = false after Shutdown")
	}
}

// TestEvents pins the observable lifecycle: creation, boundaries, and
// completion all land in the session's event log with monotonic
// sequence numbers.
func TestEvents(t *testing.T) {
	s := newTestServer(t, nil)
	info := mustCreate(t, s, "", testSessionConfig(10))
	mustFinish(t, s, info.ID)
	evs, err := s.Events(info.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not monotonic: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	for _, want := range []string{"created", "live", "boundary", "done"} {
		if kinds[want] == 0 {
			t.Errorf("no %q event in %v", want, kinds)
		}
	}
}

// TestConcurrentLifecycle exercises the whole state machine from many
// goroutines at once — concurrent steps, evictions, reads and deletes
// across sessions sharing a small live-slot pool — and then checks
// byte identity survived the melee. Run under -race.
func TestConcurrentLifecycle(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxLive = 2; c.Workers = 2 })
	ctx := context.Background()
	const sessions = 6

	infos := make([]Info, sessions)
	controls := make([]string, sessions)
	for i := range infos {
		infos[i] = mustCreate(t, s, fmt.Sprintf("tenant-%d", i%2), testSessionConfig(800+uint64(i)))
		c := mustCreate(t, s, "", testSessionConfig(800+uint64(i)))
		controls[i] = mustFinish(t, s, c.ID).Result.Fingerprint
	}

	// 3 actors per session: a stepper, an evictor, and a reader, all
	// racing. Deterministically seeded randomness keeps reruns honest.
	err := parallel.ForEach(3*sessions, 3*sessions, func(i int) error {
		sess := infos[i/3]
		rng := xrand.New(uint64(9000 + i))
		switch i % 3 {
		case 0: // stepper: advance in small random bites until done
			for {
				res, err := s.Step(ctx, sess.ID, 1+rng.Uint64n(3))
				if err != nil {
					var over *OverloadError
					if errors.As(err, &over) {
						time.Sleep(time.Millisecond)
						continue
					}
					return fmt.Errorf("step %s: %w", sess.ID, err)
				}
				if res.State == StateDone {
					if res.Result.Fingerprint != controls[i/3] {
						return fmt.Errorf("session %s fingerprint %s != control %s",
							sess.ID, res.Result.Fingerprint, controls[i/3])
					}
					return nil
				}
				if res.State == StateFailed {
					return fmt.Errorf("session %s failed: %s", sess.ID, res.Failure)
				}
			}
		case 1: // evictor: shove it to disk a few times
			for j := 0; j < 5; j++ {
				if _, err := s.Evict(ctx, sess.ID); err != nil && !errors.Is(err, ErrNotFound) {
					return fmt.Errorf("evict %s: %w", sess.ID, err)
				}
				time.Sleep(time.Duration(rng.Uint64n(3)) * time.Millisecond)
			}
			return nil
		default: // reader: info and events must always be coherent
			for j := 0; j < 20; j++ {
				info, err := s.Get(sess.ID)
				if err != nil {
					return fmt.Errorf("get %s: %w", sess.ID, err)
				}
				switch info.State {
				case StateIdle, StateLive, StateDone:
				default:
					return fmt.Errorf("session %s in unexpected state %q", sess.ID, info.State)
				}
				if _, err := s.Events(sess.ID); err != nil {
					return err
				}
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything completed; now deletes race against nothing and the
	// registry ends empty of these sessions.
	for _, info := range infos {
		if err := s.Delete(ctx, info.ID); err != nil {
			t.Errorf("delete %s: %v", info.ID, err)
		}
	}
}

// TestKillRestoreIdentity simulates the SIGKILL path at the API level:
// no Shutdown, no final sweep — a second server opens the same data
// directory while the first is simply abandoned. Everything acked
// before the "kill" must be present and deterministic.
func TestKillRestoreIdentity(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a := mustCreate(t, s1, "", testSessionConfig(901))
	if _, err := s1.Step(ctx, a.ID, 3); err != nil {
		t.Fatalf("step: %v", err)
	}
	// Evict so the snapshot is on disk (a SIGKILL would otherwise lose
	// only the in-memory progress, which is recomputed).
	if _, err := s1.Evict(ctx, a.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	// Abandon s1 without shutdown — its engines are all parked, so the
	// only trace is its goroutines; the files are the contract.
	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("New after simulated kill: %v", err)
	}
	t.Cleanup(func() {
		c, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s2.Shutdown(c)
		s1.Shutdown(c)
	})
	info, err := s2.Get(a.ID)
	if err != nil || info.Boundaries != 3 {
		t.Fatalf("restored session = %+v, %v; want 3 boundaries", info, err)
	}
	got := mustFinish(t, s2, a.ID).Result.Fingerprint
	twin := mustCreate(t, s2, "", testSessionConfig(901))
	if want := mustFinish(t, s2, twin.ID).Result.Fingerprint; got != want {
		t.Errorf("killed-and-restored fingerprint %s != twin %s", got, want)
	}
}

// controlRun finishes an uninterrupted twin of cfg on a fresh server.
func controlRun(t *testing.T, cfg SessionConfig) StepResult {
	t.Helper()
	s := newTestServer(t, nil)
	return mustFinish(t, s, mustCreate(t, s, "", cfg).ID)
}

// TestBoundariesAfterStaleManifest: an eviction writes the receipt and
// then the manifest, so a crash between the two restarts the session
// from a receipt 3 boundaries ahead of its manifest's count. The
// resumed session must still report the boundaries of an uninterrupted
// run: the count comes from the engine, not from the manifest.
func TestBoundariesAfterStaleManifest(t *testing.T) {
	cfg := testSessionConfig(901)
	var armed atomic.Bool
	n := newNode(t, func(_ *node, p string) error {
		if armed.Load() && p == "write.manifest" {
			return errSimCrash
		}
		return nil
	})
	ctx := context.Background()
	info := mustCreate(t, n.server(), "", cfg)
	for _, armAfter := range []bool{false, true} {
		if _, err := n.server().Step(ctx, info.ID, 3); err != nil {
			t.Fatalf("step: %v", err)
		}
		armed.Store(armAfter)
		if _, err := n.server().Evict(ctx, info.ID); err != nil {
			t.Fatalf("evict: %v", err)
		}
	}
	n.boot(nil)
	if got, _ := n.server().Get(info.ID); got.Boundaries != 3 {
		t.Fatalf("restored manifest reports %d boundaries; the test needs the stale 3", got.Boundaries)
	}
	res := mustFinish(t, n.server(), info.ID)
	want := controlRun(t, cfg)
	if res.Boundaries != want.Boundaries || res.Result.Fingerprint != want.Result.Fingerprint {
		t.Errorf("resumed over a stale manifest: %d boundaries, fingerprint %s; control twin %d, %s",
			res.Boundaries, res.Result.Fingerprint, want.Boundaries, want.Result.Fingerprint)
	}
}

// TestBoundariesAfterLostReceipt: a session whose receipt is gone
// restarts from cycle zero. Its count must restart with it instead of
// growing on top of the manifest's.
func TestBoundariesAfterLostReceipt(t *testing.T) {
	cfg := testSessionConfig(901)
	n := newNode(t, nil)
	ctx := context.Background()
	info := mustCreate(t, n.server(), "", cfg)
	for i := 0; i < 2; i++ {
		if _, err := n.server().Step(ctx, info.ID, 3); err != nil {
			t.Fatalf("step: %v", err)
		}
		if _, err := n.server().Evict(ctx, info.ID); err != nil {
			t.Fatalf("evict: %v", err)
		}
	}
	n.kill()
	if err := os.Remove(n.server().store.snapPath(info.ID)); err != nil {
		t.Fatalf("removing the receipt: %v", err)
	}
	n.boot(nil)
	res := mustFinish(t, n.server(), info.ID)
	want := controlRun(t, cfg)
	if res.Boundaries != want.Boundaries || res.Result.Fingerprint != want.Result.Fingerprint {
		t.Errorf("restarted without a receipt: %d boundaries, fingerprint %s; control twin %d, %s",
			res.Boundaries, res.Result.Fingerprint, want.Boundaries, want.Result.Fingerprint)
	}
}

// TestDoneReceiptSweptAtBoot: completion writes the done manifest and
// then removes the receipt, so a crash between the two leaves a
// receipt next to a done manifest. The next boot removes it.
func TestDoneReceiptSweptAtBoot(t *testing.T) {
	var armed atomic.Bool
	n := newNode(t, func(_ *node, p string) error {
		if armed.Load() && p == "remove.snap" {
			return errSimCrash
		}
		return nil
	})
	ctx := context.Background()
	info := mustCreate(t, n.server(), "", testSessionConfig(903))
	if _, err := n.server().Step(ctx, info.ID, 2); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := n.server().Evict(ctx, info.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	armed.Store(true)
	n.server().Step(ctx, info.ID, 0)
	if !n.server().crashed.Load() {
		t.Fatal("the crash hook never fired")
	}
	snap := n.server().store.snapPath(info.ID)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("the crash left no receipt behind: %v", err)
	}
	n.boot(nil)
	if got, err := n.server().Get(info.ID); err != nil || got.State != StateDone {
		t.Fatalf("restored session = %+v, %v; want done", got, err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("receipt of a done session survived the boot: %v", err)
	}
}

// TestParkedSessionOutlivesStallTimeout: a session parked at its
// boundary gate, or queued there for a compute token, for several
// stall timeouts is idle, not stalled. The watchdog's clock stops
// while the engine waits in OnCheckpoint, so the session finishes
// with its control fingerprint.
func TestParkedSessionOutlivesStallTimeout(t *testing.T) {
	const stall = 50 * time.Millisecond
	s := newTestServer(t, func(c *Config) { c.StallTimeout = stall; c.Workers = 1 })
	ctx := context.Background()
	cfg := testSessionConfig(902)
	info := mustCreate(t, s, "", cfg)
	if _, err := s.Step(ctx, info.ID, 2); err != nil {
		t.Fatalf("step: %v", err)
	}
	time.Sleep(6 * stall) // parked at the gate
	s.tokens <- struct{}{}
	step := make(chan error, 1)
	go func() {
		_, err := s.Step(ctx, info.ID, 1)
		step <- err
	}()
	time.Sleep(6 * stall) // granted, queued for the only token
	<-s.tokens
	if err := <-step; err != nil {
		t.Fatalf("step after waiting for a token: %v", err)
	}
	time.Sleep(6 * stall)
	res := mustFinish(t, s, info.ID)
	if want := controlRun(t, cfg); res.Result.Fingerprint != want.Result.Fingerprint {
		t.Errorf("parked session fingerprint %s != control %s", res.Result.Fingerprint, want.Result.Fingerprint)
	}
}
