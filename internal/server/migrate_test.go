package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/retry"
	"repro/internal/snapshot"
)

// The migration tests run a pair of instances the way soak.sh does —
// real HTTP between them — but in-process, with the chaos gate's crash
// points simulated by Config.CrashPoint instead of SIGKILL: the hook
// returns an error that aborts all cleanup, and the test abandons the
// Server exactly like TestKillRestoreIdentity abandons a killed one.

var errSimCrash = errors.New("simulated crash")

// node is one instance of the pair: a data directory that survives
// "kills", the current Server over it, and a stable-URL HTTP front that
// drops connections while the node is down — so the peer URL stays
// valid across restarts, as a real host:port would.
type node struct {
	t   *testing.T
	dir string
	ts  *httptest.Server

	mu   sync.Mutex
	srv  *Server
	down bool
	old  []*Server // abandoned incarnations, reaped at cleanup
}

func newNode(t *testing.T, crash func(*node, string) error) *node {
	t.Helper()
	n := &node{t: t, dir: t.TempDir()}
	n.ts = httptest.NewServer(http.HandlerFunc(n.serve))
	t.Cleanup(func() {
		n.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		n.mu.Lock()
		all := append(n.old, n.srv)
		n.mu.Unlock()
		for _, s := range all {
			if s != nil {
				s.Shutdown(ctx)
			}
		}
	})
	n.boot(crash)
	return n
}

func (n *node) url() string { return n.ts.URL }

func (n *node) serve(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	srv, down := n.srv, n.down
	n.mu.Unlock()
	if down || srv == nil {
		panic(http.ErrAbortHandler) // connection drop, like a dead host
	}
	srv.Handler().ServeHTTP(w, r)
}

// boot starts a fresh Server over the node's directory. Tiny retry and
// migrate budgets keep crash-path retries and recovery polls fast.
func (n *node) boot(crash func(*node, string) error) {
	n.t.Helper()
	cfg := testConfig(n.dir)
	cfg.PeerAllow = []string{"*"}
	cfg.AdvertiseURL = n.url()
	cfg.MigrateTimeout = 2 * time.Second
	cfg.Retry = retry.Policy{Attempts: 3, Base: time.Millisecond, Cap: 4 * time.Millisecond}
	if crash != nil {
		cfg.CrashPoint = func(p string) error { return crash(n, p) }
	}
	s, err := New(cfg)
	if err != nil {
		n.t.Fatalf("booting node over %s: %v", n.dir, err)
	}
	n.mu.Lock()
	if n.srv != nil {
		n.old = append(n.old, n.srv)
	}
	n.srv = s
	n.down = false
	n.mu.Unlock()
}

// kill abandons the current Server without shutdown and drops all
// traffic, like SIGKILL would.
func (n *node) kill() {
	n.mu.Lock()
	n.down = true
	n.mu.Unlock()
}

func (n *node) server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// crashAndDie builds a CrashPoint hook that kills the node at the
// named point: after it fires, the node drops connections until
// rebooted — so retries and recovery queries see a dead peer, not a
// live server that just errored once.
func crashAndDie(point string) func(*node, string) error {
	return func(n *node, p string) error {
		if p != point {
			return nil
		}
		n.kill()
		return fmt.Errorf("%w at %s", errSimCrash, p)
	}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// controlFingerprint runs an uninterrupted twin of cfg to completion.
func controlFingerprint(t *testing.T, s *Server, cfg SessionConfig) string {
	t.Helper()
	twin := mustCreate(t, s, "", cfg)
	fp := mustFinish(t, s, twin.ID).Result.Fingerprint
	if err := s.Delete(context.Background(), twin.ID); err != nil {
		t.Fatalf("deleting control twin: %v", err)
	}
	return fp
}

// TestMigrateBasic pins the happy path end to end: prepare, transfer,
// commit; tombstone semantics on the source; byte-identical completion
// on the target; gap-free obs continuation; lifecycle events.
func TestMigrateBasic(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	cfg := testSessionConfig(501)
	info := mustCreate(t, a.server(), "", cfg)
	if _, err := a.server().Step(ctx, info.ID, 3); err != nil {
		t.Fatalf("step: %v", err)
	}
	// The obs cursor the destination must continue from.
	src, err := a.server().lookup(info.ID)
	if err != nil {
		t.Fatalf("lookup before migrate: %v", err)
	}
	cursor := src.obsLog.lastSeq()
	if cursor == 0 {
		t.Fatal("no published obs events before migration; test needs some")
	}

	res, err := a.server().Migrate(ctx, info.ID, b.url())
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if res.Epoch != 1 || res.Target != b.url() {
		t.Errorf("MigrateResult = %+v; want epoch 1, target %s", res, b.url())
	}

	// Source: tombstone. Steps are fenced with the new location...
	var gone *MigratedError
	if _, err := a.server().Step(ctx, info.ID, 1); !errors.As(err, &gone) || gone.Location != b.url() {
		t.Fatalf("step on source after migrate = %v; want MigratedError to %s", err, b.url())
	}
	// ...a second migrate is fenced the same way...
	if _, err := a.server().Migrate(ctx, info.ID, b.url()); !errors.As(err, &gone) {
		t.Fatalf("re-migrate on source = %v; want MigratedError", err)
	}
	// ...reads still work and carry the forwarding info.
	got, err := a.server().Get(info.ID)
	if err != nil || got.State != StateMigrated || got.MigratedTo != b.url() {
		t.Fatalf("source Get = %+v, %v; want migrated -> %s", got, err, b.url())
	}
	// The intent is resolved and the snapshot moved out.
	if ins, _, qerr := a.server().store.scanIntents(); qerr != nil {
		t.Fatalf("scanIntents: %v", qerr)
	} else if len(ins) != 0 {
		t.Errorf("source still holds %d migration intents after commit", len(ins))
	}

	// Target: the session is resident, resumable, and carries provenance.
	tgt, err := b.server().Get(info.ID)
	if err != nil || tgt.State != StateIdle || tgt.Boundaries != 3 {
		t.Fatalf("target Get = %+v, %v; want idle at 3 boundaries", tgt, err)
	}
	if tgt.MigratedFrom != a.url() || tgt.Epoch != 1 {
		t.Errorf("target provenance = from %q epoch %d; want from %s epoch 1", tgt.MigratedFrom, tgt.Epoch, a.url())
	}
	fp := mustFinish(t, b.server(), info.ID).Result.Fingerprint
	if want := controlFingerprint(t, b.server(), cfg); fp != want {
		t.Errorf("migrated fingerprint %s != control twin %s", fp, want)
	}

	// Obs continuity: the target's stream picks up exactly past the
	// source's cursor, with no gap.
	dst, err := b.server().lookup(info.ID)
	if err != nil {
		t.Fatalf("obs on target: %v", err)
	}
	after, _, _, _ := dst.obsLog.since(cursor)
	if len(after) == 0 {
		t.Fatal("target published no obs events past the migrated cursor")
	}
	if after[0].seq != cursor+1 {
		t.Errorf("target obs resumes at seq %d, want %d (gap across migration)", after[0].seq, cursor+1)
	}

	// Lifecycle events on both sides.
	evs, err := a.server().Events(info.ID)
	if err != nil {
		t.Fatalf("source events: %v", err)
	}
	for _, want := range []string{"migrate_prepare", "migrate_transfer", "migrate_commit"} {
		found := false
		for _, ev := range evs {
			if ev.Kind == want {
				found = true
			}
		}
		if !found {
			t.Errorf("source event log lacks %q", want)
		}
	}
	bevs, err := b.server().Events(info.ID)
	if err != nil {
		t.Fatalf("target events: %v", err)
	}
	found := false
	for _, ev := range bevs {
		if ev.Kind == "migrated_in" {
			found = true
		}
	}
	if !found {
		t.Error("target event log lacks migrated_in")
	}
}

// TestRestoredTombstoneEventsEnd: a migrated tombstone restored at
// boot has no more lifecycle events to publish, so /events?follow=1 on
// it must end after the retained log instead of waiting for a delete.
func TestRestoredTombstoneEventsEnd(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	info := mustCreate(t, a.server(), "", testSessionConfig(502))
	if _, err := a.server().Step(ctx, info.ID, 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := a.server().Migrate(ctx, info.ID, b.url()); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	a.kill()
	a.boot(nil)

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(a.url() + "/v1/sessions/" + info.ID + "/events?follow=1")
	if err != nil {
		t.Fatalf("follow events on restored tombstone: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow events on restored tombstone = %d, want 200", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("events stream on restored tombstone did not end: %v", err)
	}
}

// TestMigrateHTTP pins the wire-level contract: 410 Gone with a
// Location header that rebuilds the request path on the new home, and
// a one-hop follow reaching the live session.
func TestMigrateHTTP(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	info := mustCreate(t, a.server(), "", testSessionConfig(502))
	if _, err := a.server().Step(ctx, info.ID, 2); err != nil {
		t.Fatalf("step: %v", err)
	}
	body := strings.NewReader(fmt.Sprintf(`{"target":%q}`, b.url()))
	resp, err := http.Post(a.url()+"/v1/sessions/"+info.ID+"/migrate", "application/json", body)
	if err != nil {
		t.Fatalf("POST migrate: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d, want 200", resp.StatusCode)
	}
	wantLoc := b.url() + "/v1/sessions/" + info.ID
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Errorf("migrate Location %q, want %q", loc, wantLoc)
	}

	stepPath := "/v1/sessions/" + info.ID + "/step"
	resp, err = http.Post(a.url()+stepPath, "application/json", strings.NewReader(`{"quanta":1}`))
	if err != nil {
		t.Fatalf("POST step on source: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("step on migrated session = %d, want 410", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != b.url()+stepPath {
		t.Fatalf("410 Location %q, want %q", loc, b.url()+stepPath)
	}
	resp, err = http.Post(loc, "application/json", strings.NewReader(`{"quanta":1}`))
	if err != nil {
		t.Fatalf("POST step at Location: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("followed step = %d, want 200", resp.StatusCode)
	}
}

// TestMigrateValidation covers the refusal surface: no allowlist, a
// target outside it, unknown sessions, terminal sessions.
func TestMigrateValidation(t *testing.T) {
	ctx := context.Background()
	closed := newTestServer(t, nil) // no PeerAllow: migration disabled
	info := mustCreate(t, closed, "", testSessionConfig(503))
	var val *ValidationError
	if _, err := closed.Migrate(ctx, info.ID, "http://127.0.0.1:1"); !errors.As(err, &val) {
		t.Errorf("migrate without -peer-allow = %v; want ValidationError", err)
	}

	restricted := newTestServer(t, func(c *Config) {
		c.PeerAllow = []string{"http://10.9.8.7:"}
		c.Retry = retry.Policy{Attempts: 2, Base: time.Millisecond, Cap: 2 * time.Millisecond}
	})
	info2 := mustCreate(t, restricted, "", testSessionConfig(504))
	if _, err := restricted.Migrate(ctx, info2.ID, "http://127.0.0.1:9"); !errors.As(err, &val) {
		t.Errorf("migrate to non-allowlisted target = %v; want ValidationError", err)
	}
	if _, err := restricted.Migrate(ctx, "s-999999", "http://10.9.8.7:1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("migrate unknown session = %v; want ErrNotFound", err)
	}
	mustFinish(t, restricted, info2.ID)
	var conf *ConflictError
	if _, err := restricted.Migrate(ctx, info2.ID, "http://10.9.8.7:1"); !errors.As(err, &conf) {
		t.Errorf("migrate done session = %v; want ConflictError", err)
	}
}

// TestMigrateFencing exercises the epoch protocol directly: duplicate
// deliveries ack idempotently, stale epochs are fenced, and a recovery
// query's "no" fences a later commit of the epoch it answered for.
func TestMigrateFencing(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	info := mustCreate(t, a.server(), "", testSessionConfig(505))
	if _, err := a.server().Step(ctx, info.ID, 2); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := a.server().Migrate(ctx, info.ID, b.url()); err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	// A duplicate push of the committed epoch (the lost-ack replay) is
	// acked idempotently, not applied twice.
	env := &migrationEnvelope{FormatVersion: 1, ID: info.ID, Epoch: 1}
	man, err := b.server().store.loadManifest(b.server().store.manifestPath(info.ID))
	if err != nil {
		t.Fatalf("loading committed manifest: %v", err)
	}
	env.Manifest = man
	env.Manifest.Epoch = 1
	ack, err := b.server().acceptMigration(ctx, env)
	if err != nil || !ack.AlreadyCommitted {
		t.Fatalf("duplicate push = %+v, %v; want AlreadyCommitted", ack, err)
	}

	// A stale epoch (0 is invalid, so replay epoch 1 after the target
	// has moved past it) — bump the target's copy to epoch 2 via a
	// recovery query fence, then verify epoch 2 pushes are refused.
	reply, err := b.server().migrationStatus(info.ID, 1)
	if err != nil || !reply.Committed {
		t.Fatalf("status(committed epoch) = %+v, %v; want committed", reply, err)
	}
	reply, err = b.server().migrationStatus(info.ID, 2)
	if err != nil || reply.Committed {
		t.Fatalf("status(future epoch) = %+v, %v; want not committed (and fenced)", reply, err)
	}
	env.Epoch = 2
	env.Manifest.Epoch = 2
	var fen *FencedError
	if _, err := b.server().acceptMigration(ctx, env); !errors.As(err, &fen) {
		t.Fatalf("push of fenced epoch = %v; want FencedError", err)
	}
}

// TestMigrateIDCollision: a transfer whose ID names an unrelated local
// session on the target is refused, and the source reclaims.
func TestMigrateIDCollision(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	// Both instances mint s-000001 for their first session.
	ai := mustCreate(t, a.server(), "", testSessionConfig(506))
	bi := mustCreate(t, b.server(), "", testSessionConfig(507))
	if ai.ID != bi.ID {
		t.Fatalf("test premise broken: ids %s vs %s", ai.ID, bi.ID)
	}
	if _, err := a.server().Step(ctx, ai.ID, 2); err != nil {
		t.Fatalf("step: %v", err)
	}
	var conf *ConflictError
	if _, err := a.server().Migrate(ctx, ai.ID, b.url()); !errors.As(err, &conf) {
		t.Fatalf("migrate onto colliding id = %v; want ConflictError", err)
	}
	// The source reclaimed: still steppable, finishes deterministically.
	fp := mustFinish(t, a.server(), ai.ID).Result.Fingerprint
	if want := controlFingerprint(t, a.server(), testSessionConfig(506)); fp != want {
		t.Errorf("reclaimed fingerprint %s != control %s", fp, want)
	}
	// The target's own session is untouched.
	fpB := mustFinish(t, b.server(), bi.ID).Result.Fingerprint
	if want := controlFingerprint(t, b.server(), testSessionConfig(507)); fpB != want {
		t.Errorf("target session fingerprint %s != control %s", fpB, want)
	}
}

// TestMigrateKillSource kills the source at every source-side phase
// point, restarts it over the same directory, and requires the
// protocol's exactly-once outcome: the session finishes on exactly one
// side, byte-identical to an uninterrupted control twin.
func TestMigrateKillSource(t *testing.T) {
	for _, point := range []string{
		"source.prepared", "source.intent", "source.push",
		"source.acked", "source.committed",
	} {
		t.Run(point, func(t *testing.T) {
			a := newNode(t, crashAndDie(point))
			b := newNode(t, nil)
			ctx := context.Background()
			cfg := testSessionConfig(600)
			info := mustCreate(t, a.server(), "", cfg)
			if _, err := a.server().Step(ctx, info.ID, 3); err != nil {
				t.Fatalf("step: %v", err)
			}
			if _, err := a.server().Migrate(ctx, info.ID, b.url()); !errors.Is(err, errSimCrash) {
				t.Fatalf("Migrate with crash at %s = %v; want simulated crash", point, err)
			}
			// The node died at the crash point; reboot it crash-free.
			a.boot(nil)

			// Boot recovery resolves the intent in one direction or the
			// other; wait until the session leaves the fenced state.
			var last Info
			waitFor(t, "intent resolution after "+point, func() bool {
				in, err := a.server().Get(info.ID)
				if err != nil {
					return false
				}
				last = in
				return in.State != StateMigrating
			})

			var fp string
			switch last.State {
			case StateIdle:
				// Reclaimed: finishes on the source; the target must not
				// hold a live copy (it may never have seen the transfer).
				fp = mustFinish(t, a.server(), info.ID).Result.Fingerprint
				if tin, err := b.server().Get(info.ID); err == nil && tin.State != StateMigrated {
					t.Fatalf("session reclaimed on source but also %s on target: double-run", tin.State)
				}
			case StateMigrated:
				// Committed: finishes on the target; the source fences.
				waitFor(t, "target to hold the session", func() bool {
					_, err := b.server().Get(info.ID)
					return err == nil
				})
				fp = mustFinish(t, b.server(), info.ID).Result.Fingerprint
				var gone *MigratedError
				if _, err := a.server().Step(ctx, info.ID, 1); !errors.As(err, &gone) {
					t.Fatalf("step on tombstone = %v; want MigratedError", err)
				}
			default:
				t.Fatalf("session in state %q after recovery; want idle or migrated", last.State)
			}
			if want := controlFingerprint(t, b.server(), cfg); fp != want {
				t.Errorf("fingerprint after crash at %s = %s, want control %s", point, fp, want)
			}
			// Either way the intent is consumed — recovery never leaves a
			// half-resolved handoff behind.
			waitFor(t, "intent cleanup", func() bool {
				ins, _, err := a.server().store.scanIntents()
				return err == nil && len(ins) == 0
			})
		})
	}
}

// TestMigrateKillTarget kills the target at every target-side phase
// point. Before the manifest write the transfer must roll back to the
// source; after it, the restarted target owns the session and the
// source tombstones.
func TestMigrateKillTarget(t *testing.T) {
	for _, point := range []string{"target.received", "target.snapshot", "target.manifest"} {
		t.Run(point, func(t *testing.T) {
			a := newNode(t, nil)
			b := newNode(t, crashAndDie(point))
			ctx := context.Background()
			cfg := testSessionConfig(700)
			info := mustCreate(t, a.server(), "", cfg)
			if _, err := a.server().Step(ctx, info.ID, 3); err != nil {
				t.Fatalf("step: %v", err)
			}
			// The push dies against a crashing peer; the source must hold
			// the session fenced rather than guess.
			var migrating *MigratingError
			if _, err := a.server().Migrate(ctx, info.ID, b.url()); !errors.As(err, &migrating) {
				t.Fatalf("Migrate against dying target = %v; want MigratingError", err)
			}
			if _, err := a.server().Step(ctx, info.ID, 1); !errors.As(err, &migrating) {
				t.Fatalf("step while fenced = %v; want MigratingError", err)
			}
			b.boot(nil)

			var last Info
			waitFor(t, "resolution after "+point, func() bool {
				in, err := a.server().Get(info.ID)
				if err != nil {
					return false
				}
				last = in
				return in.State != StateMigrating
			})

			var fp string
			committed := point == "target.manifest"
			if committed {
				// The manifest reached the target's disk: that transfer
				// committed, and recovery must agree.
				if last.State != StateMigrated {
					t.Fatalf("state %q after crash at %s; want migrated (manifest is the commit point)", last.State, point)
				}
				fp = mustFinish(t, b.server(), info.ID).Result.Fingerprint
			} else {
				if last.State != StateIdle {
					t.Fatalf("state %q after crash at %s; want idle (reclaimed)", last.State, point)
				}
				fp = mustFinish(t, a.server(), info.ID).Result.Fingerprint
				if _, err := b.server().Get(info.ID); !errors.Is(err, ErrNotFound) {
					t.Fatalf("target holds the session after pre-commit crash: double-run risk")
				}
			}
			if want := controlFingerprint(t, a.server(), cfg); fp != want {
				t.Errorf("fingerprint after crash at %s = %s, want control %s", point, fp, want)
			}
			waitFor(t, "intent cleanup", func() bool {
				ins, _, err := a.server().store.scanIntents()
				return err == nil && len(ins) == 0
			})
		})
	}
}

// TestMigrateReclaimThenRetry pins the epoch-burn rule: a session
// reclaimed after its epoch was fenced at the target must migrate
// successfully on retry, carrying a strictly higher epoch. Without the
// burn, the retry reuses the fenced epoch and every attempt is 409'd
// forever (the loop the migrate soak's crash-at-intent round caught).
func TestMigrateReclaimThenRetry(t *testing.T) {
	a := newNode(t, crashAndDie("source.intent"))
	b := newNode(t, nil)
	ctx := context.Background()
	cfg := testSessionConfig(900)
	info := mustCreate(t, a.server(), "", cfg)
	if _, err := a.server().Step(ctx, info.ID, 3); err != nil {
		t.Fatalf("step: %v", err)
	}
	// Die with the intent durable but nothing pushed; boot recovery asks
	// the target, which fences epoch 1 and answers "not committed".
	if _, err := a.server().Migrate(ctx, info.ID, b.url()); !errors.Is(err, errSimCrash) {
		t.Fatalf("Migrate with crash at source.intent = %v; want simulated crash", err)
	}
	a.boot(nil)
	waitFor(t, "reclaim after fenced recovery", func() bool {
		in, err := a.server().Get(info.ID)
		return err == nil && in.State == StateIdle
	})

	// The retry must carry an epoch past the fenced one and commit.
	res, err := a.server().Migrate(ctx, info.ID, b.url())
	if err != nil {
		t.Fatalf("Migrate retry after fenced reclaim: %v (epoch not burned?)", err)
	}
	if res.Epoch < 2 {
		t.Errorf("retry committed at epoch %d; want >= 2 (epoch 1 was fenced)", res.Epoch)
	}
	fp := mustFinish(t, b.server(), info.ID).Result.Fingerprint
	if want := controlFingerprint(t, a.server(), cfg); fp != want {
		t.Errorf("reclaim-then-retry fingerprint %s != control %s", fp, want)
	}
}

// TestMigrateConcurrentStepFences: step traffic racing a migration
// never lands twice — it either completes before the handoff, is
// fenced 409 during it, or is redirected 410 after it.
func TestMigrateConcurrentStepFences(t *testing.T) {
	a, b := newNode(t, nil), newNode(t, nil)
	ctx := context.Background()
	cfg := testSessionConfig(800)
	info := mustCreate(t, a.server(), "", cfg)
	if _, err := a.server().Step(ctx, info.ID, 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.server().Migrate(ctx, info.ID, b.url())
		done <- err
	}()
	// Hammer steps during the handoff; every response must be one of
	// the three legal outcomes.
	var gone *MigratedError
	var migrating *MigratingError
	for i := 0; i < 50; i++ {
		_, err := a.server().Step(ctx, info.ID, 1)
		switch {
		case err == nil:
		case errors.As(err, &gone):
		case errors.As(err, &migrating):
		default:
			t.Fatalf("step during migration = %v; want success, MigratingError or MigratedError", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		var conf *ConflictError
		// The session may have finished under the step hammer before the
		// migration could park it — that refusal is legal too.
		if !errors.As(err, &conf) {
			t.Fatalf("Migrate: %v", err)
		}
		mustFinish(t, a.server(), info.ID)
		return
	}
	fp := mustFinish(t, b.server(), info.ID).Result.Fingerprint
	if want := controlFingerprint(t, b.server(), cfg); fp != want {
		t.Errorf("migrated-under-load fingerprint %s != control %s", fp, want)
	}
}

// TestMigrateEnvelopeCarriesReceipt: the transfer envelope ships the
// session's snapshot receipt, not a state payload, so it stays under
// 1 KiB.
func TestMigrateEnvelopeCarriesReceipt(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	info := mustCreate(t, s, "", testSessionConfig(508))
	if _, err := s.Step(ctx, info.ID, 3); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := s.Evict(ctx, info.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	sess, err := s.lookup(info.ID)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	env, err := s.buildEnvelope(sess, 1)
	if err != nil {
		t.Fatalf("buildEnvelope: %v", err)
	}
	if n := len(env.Snapshot); n == 0 || n >= 1024 {
		t.Fatalf("envelope snapshot is %d bytes, want a receipt under 1 KiB", n)
	}
}

// TestVerifySnapshotMatchesConfigRecord: a transferred snapshot whose
// config record repeats one key in place of another has the right
// length but the wrong record, and is refused before it is persisted.
func TestVerifySnapshotMatchesConfigRecord(t *testing.T) {
	cfg := testSessionConfig(509)
	st := &snapshot.State{Config: cfg.kv(), Policy: cfg.Policy, Seed: cfg.Seed, CheckpointEvery: cfg.Quantum}
	raw := func() []byte {
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		return buf.Bytes()
	}
	if err := verifySnapshotMatches(raw(), cfg); err != nil {
		t.Fatalf("matching record refused: %v", err)
	}
	var keys []string
	for i, kv := range st.Config {
		if kv.K == "scale" {
			st.Config[i] = st.Config[0]
		}
		keys = append(keys, st.Config[i].K)
	}
	if err := verifySnapshotMatches(raw(), cfg); err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("record %v accepted (err %v), want a config mismatch", keys, err)
	}
}
