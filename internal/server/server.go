// Package server is atsimd's core: a crash-tolerant multi-session
// simulation service. Each session hosts one deterministic engine run
// (internal/rt) stepped quantum by quantum; the server shards live
// sessions across a bounded compute pool, admits work against session
// and tenant limits, evicts cold sessions to disk snapshots under
// memory pressure, resumes them transparently (and verifies the resume
// bit-for-bit — the engine's deterministic fast-forward), isolates
// per-session panics, and survives SIGKILL: on restart every admitted
// session is restored from its manifest and continues to the same
// fingerprint an uninterrupted run would have produced.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/retry"
	"repro/internal/snapshot"
)

// Config tunes one Server. The zero value of any field selects its
// documented default.
type Config struct {
	// DataDir holds manifests and snapshots (required).
	DataDir string
	// MaxSessions bounds resident sessions, any state (default 16384).
	MaxSessions int
	// MaxLive bounds sessions with a resident engine — executing or
	// parked at a boundary gate (default 64). Above it, steps evict the
	// least-recently-touched parked session or get 429.
	MaxLive int
	// Workers bounds sessions executing simulation concurrently — the
	// compute token pool (default GOMAXPROCS).
	Workers int
	// TenantQuota bounds resident sessions per tenant; 0 = unlimited.
	TenantQuota int
	// RequestTimeout is the HTTP layer's per-request deadline (default
	// 30s). A step that outlives it keeps executing server-side; only
	// the response is abandoned.
	RequestTimeout time.Duration
	// StallTimeout arms each engine's stall watchdog (default 30s; its
	// clock stops while a session is parked at the boundary gate).
	StallTimeout time.Duration
	// DrainTimeout bounds graceful shutdown before engines are
	// hard-aborted (default 10s); used by callers of Shutdown.
	DrainTimeout time.Duration
	// MaxScale bounds admitted workload scale (default 1.0).
	MaxScale float64
	// MinQuantum/MaxQuantum bound session quanta in cycles (defaults
	// 1000 and 100M); DefaultQuantum fills an omitted quantum (100k).
	MinQuantum, MaxQuantum, DefaultQuantum uint64
	// EnableChaos admits sessions with panic_at_boundary set.
	EnableChaos bool
	// Retry shapes all store IO retries (zero value = package
	// defaults: 4 attempts, 5ms base, 500ms cap).
	Retry retry.Policy
	// SessionObs is the engine observability level for sessions that
	// do not pick one: "off", "metrics" or "trace" (default "trace" —
	// the paper's premise is that always-on telemetry is cheap enough
	// to leave on).
	SessionObs string
	// ObsRingSize is the default per-session engine event-ring (and
	// stream-ring) capacity in events (default 4096, ~256KB/CPU at 64B
	// per event; MaxLive bounds how many sessions hold rings at once).
	ObsRingSize int
	// ObsLogCap bounds each session's published engine-event log — the
	// tail the /obs endpoint and flight recorder can see (default
	// 8192). Older events fall off as an explicit gap record.
	ObsLogCap int
	// TraceSpanCap bounds the server's wall-clock span ring behind
	// /debug/server-trace (default 16384).
	TraceSpanCap int
	// AccessLog, when non-nil, receives one structured JSON line per
	// HTTP request (request id, method, path, status, duration).
	AccessLog io.Writer
	// PeerAllow lists URL prefixes acceptable as migration peers (e.g.
	// "http://10.0.0.0:" or a full base URL). Empty disables migration
	// entirely: both the outbound endpoint and inbound transfers are
	// refused. "*" allows any http(s) peer.
	PeerAllow []string
	// MaxMigrations bounds concurrent migrations per direction
	// (default 4); excess requests get 429.
	MaxMigrations int
	// MigrateTimeout bounds each migration phase: parking the engine,
	// one transfer attempt (the per-attempt retry bound), and one
	// recovery query (default 20s).
	MigrateTimeout time.Duration
	// AdvertiseURL is this instance's own base URL as peers should
	// record it; purely provenance (migrated_from) when set.
	AdvertiseURL string
	// crashPoint, when non-nil, is the fault seam package tests drive
	// (see Server.crash): called at each named migration phase
	// boundary (source.prepared, source.intent, source.push,
	// source.acked, source.committed, target.received,
	// target.snapshot, target.manifest) and before every durable store
	// mutation (write.*, remove.*, rename.*). A non-nil return
	// simulates the process dying at that instant.
	crashPoint func(point string) error
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16384
	}
	if c.MaxLive <= 0 {
		c.MaxLive = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	if c.MinQuantum == 0 {
		c.MinQuantum = 1000
	}
	if c.MaxQuantum == 0 {
		c.MaxQuantum = 100_000_000
	}
	if c.DefaultQuantum == 0 {
		c.DefaultQuantum = 100_000
	}
	if c.SessionObs == "" {
		c.SessionObs = "trace"
	}
	if c.ObsRingSize <= 0 {
		c.ObsRingSize = 4096
	}
	if c.ObsLogCap <= 0 {
		c.ObsLogCap = 8192
	}
	if c.TraceSpanCap <= 0 {
		c.TraceSpanCap = 16384
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 4
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 20 * time.Second
	}
	return c
}

// Typed errors the API layer maps to status codes.

// ErrNotFound: no such session.
var ErrNotFound = errors.New("server: session not found")

// ErrDraining: the server is shutting down and admits no new work.
var ErrDraining = errors.New("server: draining, not accepting new work")

// OverloadError is backpressure: the caller should retry after
// RetryAfter (429 + Retry-After over HTTP).
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
	// Quota marks a per-tenant rejection (retrying won't help until
	// that tenant deletes sessions).
	Quota bool
}

func (e *OverloadError) Error() string { return "server: overloaded: " + e.Reason }

// DeadlineError: the request's context expired while the server was
// still working; server-side progress continues.
type DeadlineError struct {
	Op  string
	Err error
}

func (e *DeadlineError) Error() string { return "server: deadline: " + e.Op + ": " + e.Err.Error() }
func (e *DeadlineError) Unwrap() error { return e.Err }

// ValidationError: the session config was rejected at admission.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return "server: invalid session config: " + e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// MigratedError: the session committed to another instance. Location
// is its new base URL; over HTTP this is 410 Gone plus a Location
// header rewritten for the request's path, which atsimload follows
// exactly once.
type MigratedError struct {
	ID       string
	Location string
}

func (e *MigratedError) Error() string {
	return "server: session " + e.ID + " migrated to " + e.Location
}

// MigratingError: a handoff (or its crash recovery) is in flight; the
// session accepts no writes until it resolves. 409 + Retry-After over
// HTTP.
type MigratingError struct{ ID string }

func (e *MigratingError) Error() string {
	return "server: session " + e.ID + " has a migration in flight; retry shortly"
}

// FencedError: a migration transfer carried a stale fencing epoch — a
// newer attempt (or a recovery decision) superseded it. 409 over HTTP;
// the source aborts rather than retrying.
type FencedError struct {
	ID     string
	Epoch  uint64 // the stale epoch presented
	Fenced uint64 // the epoch-or-higher the target holds or has fenced
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("server: migration of %s fenced: epoch %d is not newer than %d", e.ID, e.Epoch, e.Fenced)
}

// ConflictError: the operation is valid in general but not in the
// session's current state (e.g. migrating a terminal session). 409.
type ConflictError struct{ Err error }

func (e *ConflictError) Error() string { return "server: conflict: " + e.Err.Error() }
func (e *ConflictError) Unwrap() error { return e.Err }

// errRecheck is internal: the session changed state underfoot; the
// step loop re-reads it.
var errRecheck = errors.New("server: session state changed, recheck")

type metrics struct {
	sessionsCreated *obs.Counter
	sessionsDone    *obs.Counter
	sessionsFailed  *obs.Counter
	sessionsEvicted *obs.Counter
	sessionsResumed *obs.Counter
	sessionsDeleted *obs.Counter
	steps           *obs.Counter
	boundaries      *obs.Counter
	rejectedOver    *obs.Counter
	rejectedQuota   *obs.Counter
	panicsRecovered *obs.Counter
	ioFailures      *obs.Counter
	quarantined     *obs.Counter
	liveGauge       *obs.Gauge
	residentGauge   *obs.Gauge
	stepSeconds     *obs.Histogram
	flightDumps     *obs.Counter
	admissionWait   *obs.Histogram
	evictionSecs    *obs.Histogram
	snapWriteSecs   *obs.Histogram
	migStarted      *obs.Counter
	migCommitted    *obs.Counter
	migAborted      *obs.Counter
	migFenced       *obs.Counter
	migIn           *obs.Counter
	migSeconds      *obs.Histogram
}

// Server hosts sessions. Lock order: Server.mu before Session.mu.
type Server struct {
	cfg     Config
	store   *store
	reg     *obs.Registry
	nshards int
	met     metrics

	// baseCtx parents every engine run; cancel is the hard abort of
	// last resort during shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	// tokens is the compute pool: an engine holds a token while
	// executing simulation and releases it while parked at the gate.
	tokens chan struct{}

	// tick is the logical clock behind LRU eviction.
	tick atomic.Uint64

	// spans is the bounded wall-clock span recorder behind
	// /debug/server-trace; reqSeq numbers generated request IDs and
	// bootNanos makes them unique across restarts. logMu serializes
	// access-log writes.
	spans     *seqLog[span]
	reqSeq    atomic.Uint64
	bootNanos int64
	logMu     sync.Mutex

	// Migration plumbing: the peer HTTP client, per-direction
	// concurrency slots, a per-session-ID lock serializing inbound
	// commits against recovery-status queries, and the in-memory fence
	// table those queries write (see migrate.go for the protocol).
	peer      *peerClient
	migOut    chan struct{}
	migIn     chan struct{}
	migLocks  *idLocks
	fenceMu   sync.Mutex
	migFences map[string]uint64

	// crashed is set once crashPoint has fired: the instance is then
	// inert, as a SIGKILLed process would be (see crash).
	crashed atomic.Bool

	mu        sync.Mutex
	draining  bool
	sessions  map[string]*Session
	tenants   map[string]int
	liveCount int
	seq       uint64
}

// New builds a server over DataDir, restoring every session a previous
// process left there.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if _, err := obs.ParseLevel(cfg.SessionObs); err != nil {
		return nil, fmt.Errorf("server: SessionObs: %w", err)
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     &store{dir: cfg.DataDir, pol: cfg.Retry},
		baseCtx:   baseCtx,
		cancel:    cancel,
		tokens:    make(chan struct{}, cfg.Workers),
		sessions:  make(map[string]*Session),
		tenants:   make(map[string]int),
		spans:     newSeqLog[span](cfg.TraceSpanCap),
		bootNanos: time.Now().UnixNano(),
		peer:      newPeerClient(cfg),
		migOut:    make(chan struct{}, cfg.MaxMigrations),
		migIn:     make(chan struct{}, cfg.MaxMigrations),
		migLocks:  newIDLocks(),
		migFences: make(map[string]uint64),
	}
	s.store.crash = s.crash
	s.peer.inert = s.crashed.Load
	s.initMetrics()
	if err := s.restore(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

func (s *Server) initMetrics() {
	s.nshards = runtime.GOMAXPROCS(0)
	if s.nshards < 1 {
		s.nshards = 1
	}
	s.reg = obs.NewRegistry(s.nshards)
	s.met = metrics{
		sessionsCreated: s.reg.Counter("atsimd_sessions_created_total"),
		sessionsDone:    s.reg.Counter("atsimd_sessions_done_total"),
		sessionsFailed:  s.reg.Counter("atsimd_sessions_failed_total"),
		sessionsEvicted: s.reg.Counter("atsimd_sessions_evicted_total"),
		sessionsResumed: s.reg.Counter("atsimd_sessions_resumed_total"),
		sessionsDeleted: s.reg.Counter("atsimd_sessions_deleted_total"),
		steps:           s.reg.Counter("atsimd_steps_total"),
		boundaries:      s.reg.Counter("atsimd_boundaries_total"),
		rejectedOver:    s.reg.Counter("atsimd_rejected_overload_total"),
		rejectedQuota:   s.reg.Counter("atsimd_rejected_quota_total"),
		panicsRecovered: s.reg.Counter("atsimd_panics_recovered_total"),
		ioFailures:      s.reg.Counter("atsimd_io_failures_total"),
		quarantined:     s.reg.Counter("atsimd_manifests_quarantined_total"),
		liveGauge:       s.reg.Gauge("atsimd_sessions_live"),
		residentGauge:   s.reg.Gauge("atsimd_sessions_resident"),
		stepSeconds: s.reg.Histogram("atsimd_step_seconds",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}),
		flightDumps: s.reg.Counter("atsimd_flight_dumps_total"),
		// The RED latency histograms: where a step's wall time goes
		// before (admission), around (eviction) and after (snapshot
		// write) the simulation itself.
		admissionWait: s.reg.Histogram("atsimd_admission_wait_seconds",
			[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}),
		evictionSecs: s.reg.Histogram("atsimd_eviction_seconds",
			[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}),
		snapWriteSecs: s.reg.Histogram("atsimd_snapshot_write_seconds",
			[]float64{0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}),
		// Migration lifecycle: started counts attempts on the source,
		// committed/aborted their outcomes there, fenced counts stale
		// epochs refused (either side), and in counts transfers this
		// instance accepted as a target.
		migStarted:   s.reg.Counter("atsimd_migrations_started_total"),
		migCommitted: s.reg.Counter("atsimd_migrations_committed_total"),
		migAborted:   s.reg.Counter("atsimd_migrations_aborted_total"),
		migFenced:    s.reg.Counter("atsimd_migrations_fenced_total"),
		migIn:        s.reg.Counter("atsimd_migrations_in_total"),
		migSeconds: s.reg.Histogram("atsimd_migration_seconds",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}),
	}
}

// errCrashed is what every durable mutation and peer request of an
// instance returns once its crash hook has fired.
var errCrashed = errors.New("server: instance crashed (simulated)")

// crash is the instance's one fault seam, passed at every named
// migration phase boundary and before every durable store mutation.
// When the crashPoint hook refuses a point, the process has "died"
// there: crash returns the hook's error, and from then on returns
// errCrashed for every point and every peer request fails before it is
// sent (the test pair's HTTP front drops every connection to it).
// Callers propagate the error, skipping cleanup; whatever else the
// abandoned instance still does happens only in memory, so its data
// directory holds exactly what a SIGKILL at that instant would leave.
func (s *Server) crash(point string) error {
	if s.crashed.Load() {
		return errCrashed
	}
	if s.cfg.crashPoint == nil {
		return nil
	}
	if err := s.cfg.crashPoint(point); err != nil {
		s.crashed.Store(true)
		return err
	}
	return nil
}

// shard maps a session ID onto a metrics shard so hot counters stay
// spread across cache lines.
func (s *Server) shard(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(s.nshards))
}

// restore rebuilds the session table from the data directory.
func (s *Server) restore() error {
	recs, err := s.store.scan(s.cfg.Workers)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.quarantined {
			s.met.quarantined.Inc(0)
			fmt.Fprintf(os.Stderr, "atsimd: quarantined unreadable manifest %s: %v\n", r.path, r.err)
			continue
		}
		m := r.man
		sess := newSession(m.ID, m.Tenant, m.Config, s.cfg.ObsLogCap)
		sess.state = m.State
		if sess.state == StateLive || sess.state == StateMigrating || sess.state == "" {
			sess.state = StateIdle
		}
		if sess.state == StateDone || sess.state == StateFailed || sess.state == StateMigrated {
			// Terminal sessions will never publish again; engine events
			// died with the previous process (a failed session's tail
			// lives on in its flight file). Close so /obs followers
			// terminate instead of waiting forever.
			sess.obsLog.close()
		}
		if sess.state == StateMigrated {
			// A tombstone's lifecycle ended at its commit, where
			// commitMigrated closed the log: /events followers end.
			sess.events.close()
		}
		sess.boundaries = m.Boundaries
		sess.cycle = m.Cycle
		sess.evictions = m.Evictions
		sess.resumes = m.Resumes
		sess.result = m.Result
		sess.failure = m.Failure
		sess.epoch = m.Epoch
		sess.migratedTo = m.MigratedTo
		sess.migratedFrom = m.MigratedFrom
		sess.onDisk = r.hasSnap
		sess.cleanGen = sess.gen // just loaded: disk is current
		sess.lastTouch = s.tick.Add(1)
		s.sessions[m.ID] = sess
		s.tenants[m.Tenant]++
		if n, ok := parseID(m.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	s.updateGaugesLocked()
	s.recoverIntents()
	return nil
}

func parseID(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "s-") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[2:], 10, 64)
	return n, err == nil
}

func (s *Server) updateGaugesLocked() {
	s.met.liveGauge.Set(float64(s.liveCount))
	s.met.residentGauge.Set(float64(len(s.sessions)))
}

// CreateSession validates and admits a new session; the returned Info
// is durable — its manifest reached disk before this returns.
func (s *Server) CreateSession(ctx context.Context, tenant string, cfg SessionConfig) (Info, error) {
	if tenant == "" {
		tenant = "default"
	}
	cfg = cfg.withDefaults(s.cfg)
	if err := cfg.validate(s.cfg); err != nil {
		return Info{}, &ValidationError{Err: err}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Info{}, ErrDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.met.rejectedOver.Inc(s.shard(tenant))
		return Info{}, &OverloadError{
			Reason:     fmt.Sprintf("server at capacity (%d resident sessions)", s.cfg.MaxSessions),
			RetryAfter: 5 * time.Second,
		}
	}
	if q := s.cfg.TenantQuota; q > 0 && s.tenants[tenant] >= q {
		s.mu.Unlock()
		s.met.rejectedQuota.Inc(s.shard(tenant))
		return Info{}, &OverloadError{
			Reason:     fmt.Sprintf("tenant %q at quota (%d resident sessions)", tenant, q),
			RetryAfter: 5 * time.Second,
			Quota:      true,
		}
	}
	s.seq++
	id := fmt.Sprintf("s-%06d", s.seq)
	sess := newSession(id, tenant, cfg, s.cfg.ObsLogCap)
	sess.lastTouch = s.tick.Add(1)
	s.sessions[id] = sess
	s.tenants[tenant]++
	s.updateGaugesLocked()
	s.mu.Unlock()

	// Durable admission: acknowledge only after the manifest is on
	// disk, so a kill -9 at any instant loses at most sessions the
	// client never heard about.
	if err := s.persistManifest(sess); err != nil {
		s.dropSession(sess, true)
		return Info{}, fmt.Errorf("server: persisting new session: %w", err)
	}
	s.met.sessionsCreated.Inc(s.shard(id))
	sess.events.push(Event{Kind: "created"})
	return sess.info(), nil
}

func (s *Server) lookup(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// Get returns one session's summary.
func (s *Server) Get(id string) (Info, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	return sess.info(), nil
}

// List returns every resident session, sorted by ID.
func (s *Server) List() []Info {
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	out := make([]Info, 0, len(all))
	for _, sess := range all {
		out = append(out, sess.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Events returns the session's retained lifecycle events, exactly as
// a batch read of /events renders them.
func (s *Server) Events(id string) ([]Event, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return lifecycle(sess.events), nil
}

// StepResult is one step call's outcome.
type StepResult struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	Boundaries uint64  `json:"boundaries"`
	Cycle      uint64  `json:"cycle"`
	Evictions  uint64  `json:"evictions"`
	Result     *Result `json:"result,omitempty"`
	Failure    string  `json:"failure,omitempty"`
}

// Step advances a session by quanta checkpoint boundaries (0 = run to
// completion). Steps on one session serialize; the engine is created,
// resumed from its snapshot, or reused at its gate as needed, and an
// eviction racing the step is absorbed by resuming and finishing the
// remaining budget. A ctx deadline abandons only the response — the
// granted work keeps executing and lands in the session.
func (s *Server) Step(ctx context.Context, id string, quanta uint64) (StepResult, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return StepResult{}, err
	}
	req := RequestID(ctx)
	admit := time.Now()
	if err := sess.lockStep(ctx); err != nil {
		return StepResult{}, err
	}
	defer sess.unlockStep()
	start := time.Now()
	s.met.admissionWait.Observe(s.shard(id), start.Sub(admit).Seconds())
	s.spans.push(span{name: "admission.wait", sess: id, req: req, start: admit, dur: start.Sub(admit)})
	s.met.steps.Inc(s.shard(id))
	defer func() {
		s.met.stepSeconds.Observe(s.shard(id), time.Since(start).Seconds())
	}()
	for {
		sess.mu.Lock()
		if sess.deleted {
			sess.mu.Unlock()
			return StepResult{}, ErrNotFound
		}
		if sess.state == StateDone || sess.state == StateFailed {
			out := sess.outcomeLocked()
			sess.mu.Unlock()
			return stepResultOf(id, out), nil
		}
		if err := sess.migrationGateLocked(); err != nil {
			sess.mu.Unlock()
			return StepResult{}, err
		}
		sess.mu.Unlock()

		le, err := s.ensureLive(ctx, sess)
		if err != nil {
			if errors.Is(err, errRecheck) {
				continue
			}
			return StepResult{}, err
		}
		g := &grant{quanta: quanta, outcome: make(chan stepOutcome, 1), req: req}
		granted := time.Now()
		select {
		case le.grants <- g:
		case <-le.done:
			continue
		case <-ctx.Done():
			return StepResult{}, &DeadlineError{Op: "queueing step for session " + id, Err: ctx.Err()}
		}
		var out stepOutcome
		select {
		case out = <-g.outcome:
		case <-le.done:
			select {
			case out = <-g.outcome:
			default:
				continue
			}
		case <-ctx.Done():
			return StepResult{}, &DeadlineError{Op: "executing step for session " + id, Err: ctx.Err()}
		}
		s.spans.push(span{name: "grant.wait", sess: id, req: req,
			start: granted, dur: time.Since(granted), quanta: quanta, cycle: out.cycle, boundaries: out.boundaries})
		if out.evicted && out.state == StateIdle {
			// The engine unwound (pressure eviction or explicit evict)
			// with this grant partly served; resume and finish the
			// remaining budget transparently.
			quanta = out.remaining
			continue
		}
		return stepResultOf(id, out), nil
	}
}

func stepResultOf(id string, out stepOutcome) StepResult {
	return StepResult{
		ID: id, State: out.state, Boundaries: out.boundaries, Cycle: out.cycle,
		Evictions: out.evictions, Result: out.result, Failure: out.failure,
	}
}

// ensureLive returns the session's resident engine, creating one (and
// evicting a cold victim if every live slot is taken). It returns
// OverloadError when all live sessions are busy executing — the
// backpressure signal — and errRecheck when the session reached a
// terminal state underfoot.
func (s *Server) ensureLive(ctx context.Context, sess *Session) (*liveEngine, error) {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		sess.mu.Lock()
		if sess.deleted || sess.state == StateDone || sess.state == StateFailed ||
			sess.state == StateMigrated || sess.state == StateMigrating {
			sess.mu.Unlock()
			s.mu.Unlock()
			return nil, errRecheck
		}
		sess.lastTouch = s.tick.Add(1)
		if le := sess.live; le != nil {
			sess.mu.Unlock()
			s.mu.Unlock()
			return le, nil
		}
		if s.liveCount < s.cfg.MaxLive {
			le := newLiveEngine(s, sess)
			sess.live = le
			sess.state = StateLive
			sess.mu.Unlock()
			s.liveCount++
			s.updateGaugesLocked()
			s.mu.Unlock()
			sess.events.push(Event{Kind: "live"})
			go le.loop()
			return le, nil
		}
		sess.mu.Unlock()
		victim := s.claimVictimLocked(sess)
		s.mu.Unlock()
		if victim == nil {
			s.met.rejectedOver.Inc(s.shard(sess.ID))
			return nil, &OverloadError{
				Reason:     fmt.Sprintf("all %d live-session slots are executing steps", s.cfg.MaxLive),
				RetryAfter: time.Second,
			}
		}
		if err := s.evictWait(ctx, victim); err != nil {
			return nil, err
		}
	}
}

// claimVictimLocked (s.mu held) reserves the least-recently-touched
// live session that is parked at its gate — never one mid-step. The
// reservation is a parked→evicting CAS on the engine, so a candidate
// that accepts a grant concurrently loses the race atomically and is
// skipped; a claimed engine can no longer start executing. nil means
// every live engine is (or just became) busy.
func (s *Server) claimVictimLocked(exclude *Session) *Session {
	type cand struct {
		sess  *Session
		le    *liveEngine
		touch uint64
	}
	var cands []cand
	for _, c := range s.sessions {
		if c == exclude {
			continue
		}
		c.mu.Lock()
		le := c.live
		touch := c.lastTouch
		c.mu.Unlock()
		if le != nil {
			cands = append(cands, cand{c, le, touch})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	for _, c := range cands {
		if c.le.phase.CompareAndSwap(engineParked, engineEvicting) {
			return c.sess
		}
	}
	return nil
}

// evictWait asks a session's engine to unwind at its gate and waits
// for the slot to free. No-op when the session is not live.
func (s *Server) evictWait(ctx context.Context, sess *Session) error {
	sess.mu.Lock()
	le := sess.live
	sess.mu.Unlock()
	if le == nil {
		return nil
	}
	start := time.Now()
	le.requestStop()
	select {
	case <-le.done:
		d := time.Since(start)
		s.met.evictionSecs.Observe(s.shard(sess.ID), d.Seconds())
		s.spans.push(span{name: "evict", sess: sess.ID, req: RequestID(ctx), start: start, dur: d})
		return nil
	case <-ctx.Done():
		return &DeadlineError{Op: "evicting session " + sess.ID, Err: ctx.Err()}
	}
}

// Evict explicitly parks a session to disk, freeing its live slot.
func (s *Server) Evict(ctx context.Context, id string) (Info, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	sess.mu.Lock()
	gateErr := sess.migrationGateLocked()
	sess.mu.Unlock()
	if gateErr != nil {
		return Info{}, gateErr
	}
	if err := s.evictWait(ctx, sess); err != nil {
		return Info{}, err
	}
	return sess.info(), nil
}

// Delete removes a session and its files. A live engine is stopped
// first; the tombstone flag keeps a racing persist from resurrecting
// the files.
func (s *Server) Delete(ctx context.Context, id string) error {
	sess, err := s.lookup(id)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	if sess.deleted {
		sess.mu.Unlock()
		return ErrNotFound
	}
	sess.deleted = true
	le := sess.live
	sess.mu.Unlock()
	if le != nil {
		le.requestStop()
		select {
		case <-le.done:
		case <-ctx.Done():
			// Deletion is already marked; the engine will find the
			// tombstone when it unwinds. Fall through and remove now.
		}
	}
	// The final lifecycle event lands before the session leaves the
	// table, and the close ends every /events follower after it.
	sess.events.push(Event{Kind: "deleted"})
	sess.events.close()
	sess.obsLog.close()
	s.dropSession(sess, true)
	s.met.sessionsDeleted.Inc(s.shard(id))
	return nil
}

// dropSession removes a session from the tables (and optionally its
// files). Idempotent.
func (s *Server) dropSession(sess *Session, removeFiles bool) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.ID]; ok {
		delete(s.sessions, sess.ID)
		if s.tenants[sess.Tenant]--; s.tenants[sess.Tenant] <= 0 {
			delete(s.tenants, sess.Tenant)
		}
		s.updateGaugesLocked()
	}
	s.mu.Unlock()
	if removeFiles {
		s.store.removeSession(sess.ID)
	}
}

// loadResume fetches the session's resume state: the in-memory
// snapshot if the engine that produced it just unwound, else the disk
// snapshot, else nil (fresh run from cycle zero).
func (s *Server) loadResume(sess *Session) (*snapshot.State, error) {
	sess.mu.Lock()
	st := sess.snap
	onDisk := sess.onDisk
	sess.mu.Unlock()
	if st != nil {
		return st, nil
	}
	if !onDisk {
		return nil, nil
	}
	return s.store.loadSnapshot(sess.ID)
}

// persistManifest writes the session's manifest, with generation
// bookkeeping so a concurrent mutation is never marked clean. The
// delete tombstone is re-checked AFTER the (retried, potentially slow)
// write: if Delete removed the files mid-write, the write resurrected
// the manifest, so remove it again — either order of the final
// remove-vs-write leaves the files gone.
func (s *Server) persistManifest(sess *Session) error {
	sess.mu.Lock()
	if sess.deleted {
		sess.mu.Unlock()
		return nil
	}
	man := sess.manifestLocked()
	g := sess.gen
	sess.mu.Unlock()
	if err := s.store.writeManifest(man); err != nil {
		s.met.ioFailures.Inc(s.shard(sess.ID))
		return err
	}
	sess.mu.Lock()
	deleted := sess.deleted
	if !deleted && sess.cleanGen < g {
		sess.cleanGen = g
	}
	sess.mu.Unlock()
	if deleted {
		s.store.removeSession(sess.ID)
	}
	return nil
}

// persistSession makes the session durable: boundary snapshot to disk
// (for idle sessions holding one in memory), snapshot cleanup for done
// sessions, manifest when dirty. Failures are counted and logged via
// metrics but not fatal — the state stays in memory and the next
// persist retries.
func (s *Server) persistSession(sess *Session) {
	sess.mu.Lock()
	if sess.deleted {
		sess.mu.Unlock()
		return
	}
	st := sess.snap
	needSnap := st != nil && !sess.onDisk && sess.state == StateIdle
	dirty := sess.gen != sess.cleanGen
	done := sess.state == StateDone
	sess.mu.Unlock()
	if !dirty && !needSnap {
		return
	}
	if needSnap {
		t0 := time.Now()
		err := s.store.writeSnapshot(sess.ID, st)
		d := time.Since(t0)
		s.met.snapWriteSecs.Observe(s.shard(sess.ID), d.Seconds())
		s.spans.push(span{name: "snapshot.write", sess: sess.ID, start: t0, dur: d})
		if err != nil {
			s.met.ioFailures.Inc(s.shard(sess.ID))
			// An eviction that cannot persist its snapshot is the
			// third flight-recorder trigger: the session survives in
			// memory, but if the process dies before a later persist
			// succeeds, the flight file is the forensic record of what
			// the engine was doing.
			s.dumpFlight(sess, "eviction_failure", err.Error())
		} else {
			sess.mu.Lock()
			deleted := sess.deleted
			if !deleted && sess.snap == st {
				sess.onDisk = true
				sess.snap = nil
			}
			sess.mu.Unlock()
			if deleted {
				// Delete raced the write; scrub the just-recreated
				// snapshot (same tombstone protocol as persistManifest).
				s.store.removeSession(sess.ID)
				return
			}
		}
	}
	// The done manifest goes first: a crash before it leaves the
	// receipt to resume from, never a manifest without one.
	if s.persistManifest(sess) == nil && done {
		s.store.removeSnapshot(sess.ID)
	}
}

// engineExited is the tail of every session goroutine: classify the
// exit, persist, free the live slot, answer whoever is waiting.
func (s *Server) engineExited(le *liveEngine, res *Result, completed bool, runErr error) {
	sess := le.sess
	shard := s.shard(sess.ID)

	sess.mu.Lock()
	switch {
	case completed:
		sess.state = StateDone
		sess.result = res
		sess.snap = nil
		sess.onDisk = false
	case runErr == nil || errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		// Evicted at a boundary — or hard-aborted during shutdown —
		// with the newest snapshot already delivered: resumable.
		sess.state = StateIdle
		if runErr == nil {
			sess.evictions++
		}
	default:
		sess.state = StateFailed
		sess.failure = runErr.Error()
	}
	sess.gen++
	out := sess.outcomeLocked()
	out.evicted = sess.state == StateIdle
	if le.current != nil && !le.unlimited {
		out.remaining = le.credit
	}
	cycle := sess.cycle
	bnds := sess.boundaries
	failure := sess.failure
	sess.mu.Unlock()

	switch out.state {
	case StateDone:
		s.met.sessionsDone.Inc(shard)
		sess.events.push(Event{Kind: "done", Cycle: cycle, Boundaries: bnds})
		sess.obsLog.close()
	case StateIdle:
		s.met.sessionsEvicted.Inc(shard)
		sess.events.push(Event{Kind: "evicted", Cycle: cycle, Boundaries: bnds})
	default:
		s.met.sessionsFailed.Inc(shard)
		sess.events.push(Event{Kind: "failed", Detail: firstLine(failure)})
		// Panic, stall-watchdog trip or engine error: dump the flight
		// record — the published engine-event tail plus the lifecycle
		// log — before closing the stream.
		s.dumpFlight(sess, failureReason(failure), failure)
		sess.obsLog.close()
	}

	s.persistSession(sess)

	s.mu.Lock()
	sess.mu.Lock()
	sess.live = nil
	sess.mu.Unlock()
	s.liveCount--
	s.updateGaugesLocked()
	s.mu.Unlock()

	le.answerCurrent(out)
	for {
		select {
		case g := <-le.grants:
			// This grant was queued but never accepted: its full budget
			// is intact. Answering with the in-flight grant's residue
			// (often 0 = "to completion") would make Step retry a
			// bounded request as an unbounded one.
			qo := out
			qo.remaining = g.quanta
			g.outcome <- qo
		default:
			close(le.done)
			return
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Draining reports whether Shutdown has begun (readiness probes).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// WriteMetrics renders the server's metrics in Prometheus text format.
func (s *Server) WriteMetrics(w io.Writer) error {
	return obs.WritePrometheus(w, s.reg.Snapshot())
}

// Shutdown drains the server: stop admitting work, unwind every live
// engine at its next boundary (checkpointing it), persist everything,
// and only then return. If ctx expires first, engines are hard-aborted
// via the base context; sessions still persist whatever boundary they
// last delivered. Restarting a server over the same DataDir resumes
// every session exactly where it checkpointed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var lives []*liveEngine
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
		sess.mu.Lock()
		if sess.live != nil {
			lives = append(lives, sess.live)
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: already shut down")
	}
	for _, le := range lives {
		le.requestStop()
	}
	var stragglers int
	for _, le := range lives {
		select {
		case <-le.done:
		case <-ctx.Done():
			// Grace expired: abort the engines mid-quantum. They unwind
			// at the next context check with their last boundary intact.
			s.cancel()
			select {
			case <-le.done:
			case <-time.After(2 * time.Second):
				stragglers++
			}
		}
	}
	// Final durability sweep. Engine exits already persisted their
	// sessions; this catches io failures left dirty, never-stepped
	// sessions, and anything mutated since.
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	_ = parallel.ForEach(s.cfg.Workers, len(all), func(i int) error {
		s.persistSession(all[i])
		return nil
	})
	s.cancel()
	if stragglers > 0 {
		return fmt.Errorf("server: %d engines did not unwind before the drain deadline", stragglers)
	}
	return nil
}
