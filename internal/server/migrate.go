package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cachesim"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Cross-instance session migration: a two-phase handoff built so that
// a SIGKILL of either instance at ANY instant loses nothing and
// duplicates nothing.
//
//	prepare   park the engine at a boundary, persist snapshot +
//	          manifest, then durably record a migration intent carrying
//	          a fresh fencing epoch (sess.epoch+1). Only after the
//	          intent is on disk does any byte leave the process.
//	transfer  push the envelope — manifest, raw snapshot bytes (the
//	          on-disk container IS the wire format), obs-log cursor and
//	          tail — with retry/backoff and a per-attempt timeout.
//	commit    the target verifies the container CRC and the config
//	          fingerprint, persists snapshot THEN manifest (the
//	          manifest write is its commit point), inserts the session
//	          and acks. The source tombstones (StateMigrated, 410 +
//	          location) and removes the intent.
//
// Exactly-once under crashes rests on two facts. First, the intent is
// written before the transfer and removed only after the local
// tombstone (or reclaim decision) is resolved, so boot recovery always
// knows a handoff might be half-done and whom to ask. Second, the
// recovery question itself fences: a "not committed" answer records
// the asked epoch in the target's fence table (under the same per-ID
// lock inbound commits take), so a still-in-flight transfer of that
// epoch can no longer commit afterwards — the source may then reclaim
// with no risk of the session running on both sides. Re-push or
// reclaim, never both.

// migrationEnvelope is the transfer wire format. Snapshot carries the
// session's snapshot container verbatim (base64 in JSON); ObsPublished
// and ObsEvents carry the published engine-event cursor and retained
// tail so the /obs stream continues gap-free on the target.
type migrationEnvelope struct {
	FormatVersion int            `json:"format_version"`
	ID            string         `json:"id"`
	Epoch         uint64         `json:"epoch"`
	Source        string         `json:"source,omitempty"`
	Manifest      manifest       `json:"manifest"`
	Snapshot      []byte         `json:"snapshot,omitempty"`
	ObsPublished  uint64         `json:"obs_published,omitempty"`
	ObsEvents     []obsWireEntry `json:"obs_events,omitempty"`
}

// obsWireEntry is one published engine event in transit.
type obsWireEntry struct {
	Seq uint64    `json:"seq"`
	Ev  obs.Event `json:"ev"`
}

// migrationAck is the target's commit receipt.
type migrationAck struct {
	ID               string `json:"id"`
	Epoch            uint64 `json:"epoch"`
	AlreadyCommitted bool   `json:"already_committed,omitempty"`
}

// MigrateResult is the API-visible outcome of a committed migration.
type MigrateResult struct {
	ID         string `json:"id"`
	Target     string `json:"target"`
	Location   string `json:"location"`
	Epoch      uint64 `json:"epoch"`
	Boundaries uint64 `json:"boundaries"`
	Cycle      uint64 `json:"cycle"`
}

// Migrate runs the full outbound handoff of session id to target.
// Steps against the session serialize behind the same per-session step
// lock, so clients stepping through the migration see 504/409/410 in
// order, never a torn state.
func (s *Server) Migrate(ctx context.Context, id, target string) (MigrateResult, error) {
	tgt, err := s.peer.normalizePeer(target)
	if err != nil {
		return MigrateResult{}, &ValidationError{Err: err}
	}
	sess, err := s.lookup(id)
	if err != nil {
		return MigrateResult{}, err
	}
	select {
	case s.migOut <- struct{}{}:
	default:
		return MigrateResult{}, &OverloadError{
			Reason:     fmt.Sprintf("all %d outbound migration slots are busy", s.cfg.MaxMigrations),
			RetryAfter: 2 * time.Second,
		}
	}
	defer func() { <-s.migOut }()
	if err := sess.lockStep(ctx); err != nil {
		return MigrateResult{}, err
	}
	defer sess.unlockStep()

	sess.mu.Lock()
	switch {
	case sess.deleted:
		sess.mu.Unlock()
		return MigrateResult{}, ErrNotFound
	case sess.state == StateMigrated:
		err := sess.migrationGateLocked()
		sess.mu.Unlock()
		return MigrateResult{}, err
	case sess.state == StateMigrating:
		err := sess.migrationGateLocked()
		sess.mu.Unlock()
		return MigrateResult{}, err
	case sess.state == StateDone || sess.state == StateFailed:
		st := sess.state
		sess.mu.Unlock()
		return MigrateResult{}, &ConflictError{Err: fmt.Errorf("session %s is %s; only resumable sessions migrate", id, st)}
	}
	sess.mu.Unlock()

	start := time.Now()
	shard := s.shard(id)
	s.met.migStarted.Inc(shard)

	// Phase 1: prepare — park, persist, mark migrating.
	newEpoch, err := s.prepareMigration(ctx, sess, tgt)
	if err != nil {
		return MigrateResult{}, err
	}
	if err := s.crash("source.prepared"); err != nil {
		return MigrateResult{}, err
	}
	intent := migrationIntent{
		ID: id, Target: tgt, Epoch: newEpoch,
		Created: time.Now().UTC().Format(time.RFC3339Nano),
	}
	if err := s.store.writeIntent(intent); err != nil {
		s.met.ioFailures.Inc(shard)
		s.abortMigration(sess, 0, "intent write failed: "+firstLine(err.Error()), false)
		return MigrateResult{}, fmt.Errorf("server: persisting migration intent: %w", err)
	}
	if err := s.crash("source.intent"); err != nil {
		return MigrateResult{}, err
	}

	// Phase 2: transfer.
	env, err := s.buildEnvelope(sess, newEpoch)
	if err != nil {
		s.abortMigration(sess, newEpoch, "reading snapshot for transfer: "+firstLine(err.Error()), false)
		return MigrateResult{}, err
	}
	if err := s.crash("source.push"); err != nil {
		return MigrateResult{}, err
	}
	sess.events.push(Event{Kind: "migrate_transfer", Detail: tgt})
	_, pushErr := s.peer.push(ctx, tgt, env, func(attempt int) {
		if attempt > 1 {
			sess.events.push(Event{Kind: "migrate_retry", Detail: fmt.Sprintf("transfer attempt %d", attempt)})
		}
	})
	if pushErr != nil {
		if errors.Is(pushErr, errPeerFenced) {
			s.abortMigration(sess, newEpoch, "fenced by target: "+firstLine(pushErr.Error()), true)
			return MigrateResult{}, &ConflictError{Err: pushErr}
		}
		// The push failed without a definitive answer — an attempt may
		// have committed on the target with its response lost. Resolve
		// through the recovery query (which fences on "no"), exactly as
		// boot recovery would.
		res, rerr := s.resolvePush(sess, intent, pushErr)
		return res, rerr
	}
	if err := s.crash("source.acked"); err != nil {
		return MigrateResult{}, err
	}

	// Phase 3: commit.
	if err := s.commitMigrated(sess, tgt, newEpoch, "acked by target"); err != nil {
		return MigrateResult{}, err
	}
	d := time.Since(start)
	s.met.migSeconds.Observe(shard, d.Seconds())
	s.spans.push(span{name: "migrate", sess: id, req: RequestID(ctx), start: start, dur: d})
	return s.migrateResult(sess, tgt), nil
}

func (s *Server) migrateResult(sess *Session, tgt string) MigrateResult {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return MigrateResult{
		ID: sess.ID, Target: tgt,
		Location:   tgt + "/v1/sessions/" + sess.ID,
		Epoch:      sess.epoch,
		Boundaries: sess.boundaries, Cycle: sess.cycle,
	}
}

// prepareMigration parks the session's engine at a quantum boundary,
// makes its snapshot and manifest durable, and marks it migrating. On
// success the session refuses steps until commit or abort; the epoch
// the transfer will carry is returned but NOT yet applied to the
// session (it becomes the session's epoch only at commit).
func (s *Server) prepareMigration(ctx context.Context, sess *Session, target string) (uint64, error) {
	pctx, cancel := context.WithTimeout(ctx, s.cfg.MigrateTimeout)
	defer cancel()
	if err := s.evictWait(pctx, sess); err != nil {
		return 0, err
	}
	sess.mu.Lock()
	if sess.deleted {
		sess.mu.Unlock()
		return 0, ErrNotFound
	}
	if sess.state != StateIdle {
		st := sess.state
		sess.mu.Unlock()
		return 0, &ConflictError{Err: fmt.Errorf("session %s became %s while preparing migration", sess.ID, st)}
	}
	snap := sess.snap
	onDisk := sess.onDisk
	newEpoch := sess.epoch + 1
	sess.state = StateMigrating
	sess.gen++
	sess.mu.Unlock()
	sess.events.push(Event{Kind: "migrate_prepare", Detail: target})
	if snap != nil && !onDisk {
		if err := s.store.writeSnapshot(sess.ID, snap); err != nil {
			s.met.ioFailures.Inc(s.shard(sess.ID))
			s.abortMigration(sess, 0, "snapshot write failed: "+firstLine(err.Error()), false)
			return 0, fmt.Errorf("server: persisting snapshot for migration: %w", err)
		}
		sess.mu.Lock()
		if sess.snap == snap {
			sess.onDisk = true
			sess.snap = nil
		}
		sess.mu.Unlock()
	}
	if err := s.persistManifest(sess); err != nil {
		s.abortMigration(sess, 0, "manifest write failed: "+firstLine(err.Error()), false)
		return 0, fmt.Errorf("server: persisting manifest for migration: %w", err)
	}
	return newEpoch, nil
}

// buildEnvelope assembles the transfer: the manifest as the target
// should restore it, the raw snapshot container (nil when the session
// has no progress — the target then starts it from cycle zero), and
// the published obs cursor plus retained tail.
func (s *Server) buildEnvelope(sess *Session, epoch uint64) (*migrationEnvelope, error) {
	raw, err := s.store.readSnapshotRaw(sess.ID)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	man := sess.manifestLocked()
	sess.mu.Unlock()
	man.State = StateIdle
	man.Epoch = epoch
	man.MigratedTo = ""
	man.MigratedFrom = s.cfg.AdvertiseURL
	published, tail := sess.obsLog.export()
	env := &migrationEnvelope{
		FormatVersion: 1,
		ID:            sess.ID,
		Epoch:         epoch,
		Source:        s.cfg.AdvertiseURL,
		Manifest:      man,
		Snapshot:      raw,
		ObsPublished:  published,
	}
	for _, e := range tail {
		env.ObsEvents = append(env.ObsEvents, obsWireEntry{Seq: e.seq, Ev: e.v})
	}
	return env, nil
}

// resolvePush settles a transfer whose outcome is unknown (retries
// exhausted or the request context died mid-push). One synchronous
// recovery round decides commit or reclaim; if the target is
// unreachable even for that, the session stays fenced as migrating
// with its intent on disk and a background resolver keeps asking.
func (s *Server) resolvePush(sess *Session, in migrationIntent, pushErr error) (MigrateResult, error) {
	decided, committed, err := s.resolveOnce(sess, in)
	if err != nil {
		return MigrateResult{}, err
	}
	if !decided {
		go s.resolveIntent(sess, in)
		return MigrateResult{}, &MigratingError{ID: sess.ID}
	}
	if committed {
		return s.migrateResult(sess, in.Target), nil
	}
	return MigrateResult{}, &ConflictError{
		Err: fmt.Errorf("transfer to %s failed (%v); session reclaimed locally, safe to retry", in.Target, firstLine(pushErr.Error())),
	}
}

// commitMigrated turns the local session into a 410 tombstone. The
// intent is removed only after the tombstone manifest is durable: if
// either write fails (or the process dies between them), boot recovery
// re-asks the target and reaches the same decision.
func (s *Server) commitMigrated(sess *Session, target string, epoch uint64, detail string) error {
	sess.mu.Lock()
	if sess.deleted {
		// Deleted while migrating: the target copy is now the only one,
		// which is exactly what a migration wants. Just drop the intent.
		sess.mu.Unlock()
		s.store.removeIntent(sess.ID)
		return nil
	}
	sess.state = StateMigrated
	sess.migratedTo = target
	sess.epoch = epoch
	sess.snap = nil
	sess.onDisk = false
	sess.gen++
	sess.mu.Unlock()
	perr := s.persistManifest(sess)
	if err := s.crash("source.committed"); err != nil {
		return err
	}
	if perr == nil {
		s.store.removeSnapshot(sess.ID)
		s.store.removeIntent(sess.ID)
	}
	sess.events.push(Event{Kind: "migrate_commit", Detail: detail})
	sess.events.close()
	sess.obsLog.close()
	s.met.migCommitted.Inc(s.shard(sess.ID))
	return nil
}

// abortMigration reclaims a session whose handoff definitively did not
// commit (peer fence, local IO failure before transfer, or a fenced
// "not committed" recovery answer). The attempted epoch is burned —
// durably advanced past — because the target (or a recovery-status
// query) may have fenced it forever; a retry reusing it would be
// rejected on every future attempt. The manifest carrying the burned
// epoch is persisted before the intent is removed so a crash in
// between re-resolves to the same state. Pass epoch 0 when no epoch
// ever left the process (pre-intent failures): nothing can have
// fenced it, so nothing needs burning.
func (s *Server) abortMigration(sess *Session, epoch uint64, reason string, fenced bool) {
	sess.mu.Lock()
	deleted := sess.deleted
	burned := false
	if !deleted {
		if sess.state == StateMigrating {
			sess.state = StateIdle
		}
		if epoch > sess.epoch {
			sess.epoch = epoch
			sess.gen++
			burned = true
		}
	}
	sess.mu.Unlock()
	if burned {
		if err := s.persistManifest(sess); err != nil {
			// Keep the intent: boot recovery (or the next resolver round)
			// will fence at the target and burn the epoch again, and the
			// session must stay unable to migrate with a stale epoch until
			// the burn is durable.
			s.met.ioFailures.Inc(s.shard(sess.ID))
			sess.events.push(Event{Kind: "migrate_abort", Detail: reason + " (epoch burn not durable: " + firstLine(err.Error()) + ")"})
			return
		}
	}
	s.store.removeIntent(sess.ID)
	if deleted {
		return
	}
	sess.events.push(Event{Kind: "migrate_abort", Detail: reason})
	s.met.migAborted.Inc(s.shard(sess.ID))
	if fenced {
		s.met.migFenced.Inc(s.shard(sess.ID))
	}
}

// recoverIntents is the boot-time half of crash tolerance: every
// intent left in the data directory marks a handoff of unknown
// outcome. The owning session is fenced (StateMigrating) before the
// server serves traffic, and a background resolver per intent asks the
// recorded target which way to settle.
func (s *Server) recoverIntents() {
	intents, quarantined, err := s.store.scanIntents()
	for _, q := range quarantined {
		s.met.quarantined.Inc(0)
		fmt.Fprintf(os.Stderr, "atsimd: quarantined unreadable migration intent %s (resolve by hand, see docs/SERVICE.md)\n", q)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "atsimd: scanning migration intents: %v\n", err)
		return
	}
	for _, in := range intents {
		sess, ok := s.sessions[in.ID]
		if !ok {
			// Manifest gone (deleted or quarantined): nothing local to
			// settle either way.
			s.store.removeIntent(in.ID)
			continue
		}
		if sess.state == StateMigrated && sess.epoch >= in.Epoch {
			// Crash landed between the tombstone manifest and the intent
			// removal; finish the cleanup.
			s.store.removeSnapshot(in.ID)
			s.store.removeIntent(in.ID)
			continue
		}
		if sess.epoch >= in.Epoch {
			// An abort already burned this epoch (manifest durable) and
			// died before removing the intent: the handoff is settled as
			// reclaimed, nothing to ask the target.
			s.store.removeIntent(in.ID)
			continue
		}
		sess.state = StateMigrating
		fmt.Fprintf(os.Stderr, "atsimd: session %s has an unresolved migration intent (epoch %d -> %s); resolving\n",
			in.ID, in.Epoch, in.Target)
		go s.resolveIntent(sess, in)
	}
}

// resolveIntent keeps asking the intent's target until the handoff
// settles or the server shuts down. The session stays fenced
// (migrating, 409 to steps) the whole time: serving it locally before
// the answer is known is exactly the double-run this protocol exists
// to prevent.
func (s *Server) resolveIntent(sess *Session, in migrationIntent) {
	for {
		decided, _, err := s.resolveOnce(sess, in)
		if decided || err != nil {
			return
		}
		select {
		case <-s.baseCtx.Done():
			return
		case <-time.After(s.resolvePause()):
		}
	}
}

// resolveOnce asks the target once whether the intent's epoch
// committed there, and settles accordingly: tombstone on yes, reclaim
// on no (safe because the query fenced the epoch). decided=false means
// the target could not answer; err is non-nil only for a simulated
// crash mid-settle.
func (s *Server) resolveOnce(sess *Session, in migrationIntent) (decided, committed bool, err error) {
	sess.mu.Lock()
	deleted := sess.deleted
	sess.mu.Unlock()
	if deleted {
		s.store.removeIntent(in.ID)
		return true, false, nil
	}
	qctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.MigrateTimeout)
	defer cancel()
	reply, qerr := s.peer.status(qctx, in.Target, in.ID, in.Epoch)
	if qerr != nil {
		return false, false, nil
	}
	if reply.Committed {
		if cerr := s.commitMigrated(sess, in.Target, in.Epoch, "recovered: committed on target"); cerr != nil {
			return true, true, cerr
		}
		return true, true, nil
	}
	s.abortMigration(sess, in.Epoch, fmt.Sprintf("recovered: epoch %d fenced at target, reclaimed", in.Epoch), false)
	return true, false, nil
}

// resolvePause paces recovery rounds off the store retry policy's cap,
// so tests with millisecond policies resolve fast while production
// defaults poll every second.
func (s *Server) resolvePause() time.Duration {
	cap := s.cfg.Retry.Cap
	if cap <= 0 {
		cap = 500 * time.Millisecond
	}
	return 2 * cap
}

// acceptMigration is the inbound (target) half: verify, persist
// snapshot-then-manifest, insert, ack. The manifest write is the
// commit point — a crash before it leaves no trace (the source
// re-pushes or reclaims), a crash after it restores the session on
// boot and the source's re-push is answered "already committed".
func (s *Server) acceptMigration(ctx context.Context, env *migrationEnvelope) (migrationAck, error) {
	if len(s.cfg.PeerAllow) == 0 {
		return migrationAck{}, &ValidationError{Err: errors.New("migration disabled: no -peer-allow configured")}
	}
	if env.FormatVersion != 1 {
		return migrationAck{}, &ValidationError{Err: fmt.Errorf("unsupported migration format_version %d", env.FormatVersion)}
	}
	if env.ID == "" || env.ID != env.Manifest.ID || env.Epoch == 0 || env.Epoch != env.Manifest.Epoch {
		return migrationAck{}, &ValidationError{Err: errors.New("migration envelope id/epoch do not match its manifest")}
	}
	select {
	case s.migIn <- struct{}{}:
	default:
		return migrationAck{}, &OverloadError{
			Reason:     fmt.Sprintf("all %d inbound migration slots are busy", s.cfg.MaxMigrations),
			RetryAfter: 2 * time.Second,
		}
	}
	defer func() { <-s.migIn }()

	cfg := env.Manifest.Config
	if err := cfg.validate(s.cfg); err != nil {
		return migrationAck{}, &ValidationError{Err: fmt.Errorf("migrated session config: %w", err)}
	}
	if err := verifySnapshotMatches(env.Snapshot, cfg); err != nil {
		return migrationAck{}, &ValidationError{Err: err}
	}

	// From here on, everything for this ID serializes against recovery
	// queries: a query that answered "not committed" has fenced the
	// epoch before we get the lock, and our commit can no longer slip
	// in behind that answer.
	s.migLocks.lock(env.ID)
	defer s.migLocks.unlock(env.ID)
	if err := s.crash("target.received"); err != nil {
		return migrationAck{}, err
	}
	shard := s.shard(env.ID)
	s.fenceMu.Lock()
	fenced := s.migFences[env.ID]
	s.fenceMu.Unlock()
	if fenced >= env.Epoch {
		s.met.migFenced.Inc(shard)
		return migrationAck{}, &FencedError{ID: env.ID, Epoch: env.Epoch, Fenced: fenced}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return migrationAck{}, ErrDraining
	}
	existing := s.sessions[env.ID]
	if existing != nil {
		existing.mu.Lock()
		exEpoch, exState := existing.epoch, existing.state
		existing.mu.Unlock()
		switch {
		case exEpoch >= env.Epoch:
			s.mu.Unlock()
			if exEpoch == env.Epoch {
				// Duplicate delivery of a transfer that already committed
				// (the classic lost-ack): idempotent success.
				return migrationAck{ID: env.ID, Epoch: exEpoch, AlreadyCommitted: true}, nil
			}
			s.met.migFenced.Inc(shard)
			return migrationAck{}, &FencedError{ID: env.ID, Epoch: env.Epoch, Fenced: exEpoch}
		case exState == StateMigrating:
			s.mu.Unlock()
			return migrationAck{}, &ConflictError{Err: fmt.Errorf("session %s has a migration in flight here", env.ID)}
		case exState != StateMigrated:
			// Same ID, lower epoch, not a tombstone: an unrelated local
			// session. Refuse — the source reclaims and keeps its copy.
			s.mu.Unlock()
			return migrationAck{}, &ConflictError{Err: fmt.Errorf("session id %s collides with a local session", env.ID)}
		}
	} else {
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			s.met.rejectedOver.Inc(shard)
			return migrationAck{}, &OverloadError{
				Reason:     fmt.Sprintf("server at capacity (%d resident sessions)", s.cfg.MaxSessions),
				RetryAfter: 5 * time.Second,
			}
		}
		tenant := env.Manifest.Tenant
		if tenant == "" {
			tenant = "default"
		}
		if q := s.cfg.TenantQuota; q > 0 && s.tenants[tenant] >= q {
			s.mu.Unlock()
			s.met.rejectedQuota.Inc(shard)
			return migrationAck{}, &OverloadError{
				Reason:     fmt.Sprintf("tenant %q at quota (%d resident sessions)", tenant, s.cfg.TenantQuota),
				RetryAfter: 5 * time.Second,
				Quota:      true,
			}
		}
	}
	s.mu.Unlock()

	// Persist snapshot FIRST, manifest second: a committed manifest
	// must never reference a snapshot that is not there. (The reverse
	// order could, after a crash between the writes.)
	if len(env.Snapshot) > 0 {
		if err := s.store.writeSnapshotRaw(env.ID, env.Snapshot); err != nil {
			s.met.ioFailures.Inc(shard)
			return migrationAck{}, fmt.Errorf("server: persisting migrated snapshot: %w", err)
		}
	} else {
		s.store.removeSnapshot(env.ID)
	}
	if err := s.crash("target.snapshot"); err != nil {
		return migrationAck{}, err
	}
	man := env.Manifest
	if man.State == StateLive || man.State == StateMigrating || man.State == "" {
		man.State = StateIdle
	}
	man.MigratedTo = ""
	man.MigratedFrom = env.Source
	if man.Tenant == "" {
		man.Tenant = "default"
	}
	if err := s.store.writeManifest(man); err != nil {
		s.met.ioFailures.Inc(shard)
		return migrationAck{}, fmt.Errorf("server: persisting migrated manifest: %w", err)
	}
	if err := s.crash("target.manifest"); err != nil {
		return migrationAck{}, err
	}

	sess := s.installMigrated(man, len(env.Snapshot) > 0, existing)
	sess.obsLog.preload(env.ObsPublished, wireToEntries(env.ObsEvents))
	sess.events.push(Event{Kind: "migrated_in", Detail: env.Source,
		Boundaries: man.Boundaries, Cycle: man.Cycle})
	s.met.migIn.Inc(shard)
	return migrationAck{ID: env.ID, Epoch: env.Epoch}, nil
}

// installMigrated swaps the migrated-in session into the table,
// replacing a superseded tombstone if one is resident.
func (s *Server) installMigrated(man manifest, hasSnap bool, superseded *Session) *Session {
	sess := newSession(man.ID, man.Tenant, man.Config, s.cfg.ObsLogCap)
	sess.state = man.State
	sess.boundaries = man.Boundaries
	sess.cycle = man.Cycle
	sess.evictions = man.Evictions
	sess.resumes = man.Resumes
	sess.result = man.Result
	sess.failure = man.Failure
	sess.epoch = man.Epoch
	sess.migratedFrom = man.MigratedFrom
	sess.onDisk = hasSnap
	sess.cleanGen = sess.gen
	s.mu.Lock()
	if superseded != nil {
		if old, ok := s.sessions[man.ID]; ok && old == superseded {
			// Tombstone replaced by the session coming back: retire the
			// old record so a racing persist cannot clobber the new
			// manifest (persists no-op on deleted sessions).
			superseded.mu.Lock()
			superseded.deleted = true
			superseded.mu.Unlock()
			if s.tenants[superseded.Tenant]--; s.tenants[superseded.Tenant] <= 0 {
				delete(s.tenants, superseded.Tenant)
			}
		}
	}
	sess.lastTouch = s.tick.Add(1)
	s.sessions[man.ID] = sess
	s.tenants[man.Tenant]++
	// Keep the ID generator ahead of adopted IDs so this instance's own
	// creates can never collide with a migrated-in session.
	if n, ok := parseID(man.ID); ok && n > s.seq {
		s.seq = n
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
	return sess
}

func wireToEntries(wire []obsWireEntry) []seqEntry[obs.Event] {
	if len(wire) == 0 {
		return nil
	}
	out := make([]seqEntry[obs.Event], 0, len(wire))
	for _, w := range wire {
		out = append(out, seqEntry[obs.Event]{seq: w.Seq, v: w.Ev})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// verifySnapshotMatches decodes the transferred container (checking
// magic, version and CRC64) and cross-checks the fields that fingerprint
// the configuration: seed, policy, quantum, CPU count, cache size and
// the engine's config record (which carries app, scale, topology, obs
// level...) — the identity rt checks on resume. The full
// guarantee — bit-identical state — is enforced later by the engine's
// verified deterministic fast-forward on first resume; this check
// merely refuses obviously-mismatched transfers before they are
// persisted.
func verifySnapshotMatches(raw []byte, cfg SessionConfig) error {
	if len(raw) == 0 {
		return nil
	}
	st, err := snapshot.Load(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("migrated snapshot rejected: %w", err)
	}
	if st.Seed != cfg.Seed {
		return fmt.Errorf("migrated snapshot seed %d does not match config seed %d", st.Seed, cfg.Seed)
	}
	if st.Policy != cfg.Policy {
		return fmt.Errorf("migrated snapshot policy %q does not match config policy %q", st.Policy, cfg.Policy)
	}
	if st.CheckpointEvery != cfg.Quantum {
		return fmt.Errorf("migrated snapshot quantum %d does not match config quantum %d", st.CheckpointEvery, cfg.Quantum)
	}
	topo, err := cachesim.ParseTopology(cfg.Topology)
	if err != nil {
		return err
	}
	mcfg := cfg.machineConfig(topo)
	if got, want := int(st.NCPU), mcfg.CPUs; got != want {
		return fmt.Errorf("migrated snapshot is for %d CPUs, config has %d", got, want)
	}
	if got, want := st.CacheLines, int64(mcfg.L2.Lines()); got != want {
		return fmt.Errorf("migrated snapshot is for a %d-line cache, config has %d", got, want)
	}
	if err := snapshot.SameConfig(st.Config, cfg.kv()); err != nil {
		return fmt.Errorf("migrated snapshot config record does not match the session config: %w", err)
	}
	return nil
}

// migrationStatus answers the recovery question for (id, epoch) — and
// fences: answering "not committed" records the epoch in the fence
// table under the per-ID lock, so an inbound transfer of that epoch
// still in flight can no longer commit afterwards. The fence table is
// in-memory on purpose: it only needs to outlive in-process races (an
// accept blocked on persistence), because a process death also kills
// any transfer it was about to commit.
func (s *Server) migrationStatus(id string, epoch uint64) (migrationStatusReply, error) {
	if len(s.cfg.PeerAllow) == 0 {
		return migrationStatusReply{}, &ValidationError{Err: errors.New("migration disabled: no -peer-allow configured")}
	}
	if id == "" || epoch == 0 {
		return migrationStatusReply{}, &ValidationError{Err: errors.New("migration status needs an id and a non-zero epoch")}
	}
	s.migLocks.lock(id)
	defer s.migLocks.unlock(id)
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess != nil {
		sess.mu.Lock()
		have := sess.epoch
		sess.mu.Unlock()
		if have >= epoch {
			return migrationStatusReply{ID: id, Committed: true, Epoch: have}, nil
		}
	}
	s.fenceMu.Lock()
	if s.migFences[id] < epoch {
		s.migFences[id] = epoch
	}
	have := s.migFences[id]
	s.fenceMu.Unlock()
	return migrationStatusReply{ID: id, Committed: false, Epoch: have}, nil
}
