package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// State is a session's lifecycle state. The machine is
//
//	idle ──step──▶ live ──completes──▶ done
//	 ▲               │ ╲
//	 └──── evict ────┘  ╲─ panic/stall ──▶ failed
//
// where "idle" covers both a fresh session (no progress yet) and an
// evicted one (progress checkpointed to disk). done and failed are
// terminal; a deleted session simply ceases to exist.
type State string

const (
	// StateIdle: no engine resident. The session's progress, if any,
	// lives in its last boundary snapshot (in memory or on disk) and is
	// transparently resumed on the next step.
	StateIdle State = "idle"
	// StateLive: an engine is resident — executing a granted step or
	// parked at a quantum boundary waiting for the next one.
	StateLive State = "live"
	// StateDone: the workload ran to completion; Result is final.
	StateDone State = "done"
	// StateFailed: the session's engine panicked, stalled, or hit an
	// unrecoverable error. Only this session is affected; Failure
	// carries the diagnostic (including the stack for panics).
	StateFailed State = "failed"
	// StateMigrating: a cross-instance handoff is in flight (or was
	// interrupted by a crash and is being resolved against the target).
	// Steps are refused with 409 until the migration commits or the
	// session is reclaimed; on disk this state renders as idle — the
	// durable marker for an in-flight handoff is the intent record.
	StateMigrating State = "migrating"
	// StateMigrated: the session committed to another instance. The
	// local record is a tombstone answering further requests with 410
	// and the new location; delete it to reclaim the directory entry.
	StateMigrated State = "migrated"
)

// SessionConfig is the client-supplied simulation configuration of one
// session — the same knobs as one atsim run, plus the quantum that
// paces stepping.
type SessionConfig struct {
	// App names the workload (tasks, merge, photo, tsp).
	App string `json:"app"`
	// Policy is the scheduling policy (FCFS, LFF, CRT, ...).
	Policy string `json:"policy"`
	// CPUs selects the platform (1 = Ultra-1, >1 = E5000).
	CPUs int `json:"cpus"`
	// Scale shrinks the workload; bounded by the server's MaxScale.
	Scale float64 `json:"scale"`
	// Seed fixes all simulation randomness; equal configs with equal
	// seeds produce bit-identical runs, which is what the service's
	// crash-recovery guarantees rest on.
	Seed uint64 `json:"seed"`
	// Quantum is the step granularity in virtual cycles: each step
	// advances the simulation to the next multiple(s) of Quantum, and
	// each boundary is a valid eviction/checkpoint point. Fixed for the
	// session's lifetime.
	Quantum uint64 `json:"quantum"`
	// Topology optionally selects the cache organisation (see
	// cachesim.ParseTopology); empty means private-dm.
	Topology string `json:"topology,omitempty"`
	// DisableAnnotations runs the annotation ablation.
	DisableAnnotations bool `json:"no_annotations,omitempty"`
	// PanicAtBoundary injects a panic in the engine's checkpoint
	// callback when the session crosses its Nth quantum boundary — the
	// chaos probe behind the crash-isolation gate. The panic happens on
	// whichever thread goroutine holds the run loop; rt.Engine.Run
	// re-raises it on the session goroutine. Admitted only when the
	// server runs with chaos enabled.
	PanicAtBoundary uint64 `json:"panic_at_boundary,omitempty"`
	// Obs selects the engine observability level: "off", "metrics" or
	// "trace" (empty = the server's -session-obs default). Trace-level
	// sessions publish engine events to the live /obs stream. Fixed at
	// admission: the level feeds the checkpoint config and the state
	// fingerprint, so changing it mid-life would break resume
	// verification.
	Obs string `json:"obs,omitempty"`
	// ObsRing is the capacity of the engine's event rings (0 = the
	// server's -obs-ring default, applied at admission for traced
	// sessions). Pinned per session because the retained-event set is
	// part of the obs digest a resume must reproduce.
	ObsRing int `json:"obs_ring,omitempty"`
}

func (c SessionConfig) withDefaults(srv Config) SessionConfig {
	if c.App == "" {
		c.App = "tasks"
	}
	if c.Policy == "" {
		c.Policy = "LFF"
	}
	if c.CPUs == 0 {
		c.CPUs = 2
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Quantum == 0 {
		c.Quantum = srv.DefaultQuantum
	}
	if c.Obs == "" {
		c.Obs = srv.SessionObs
	}
	if c.ObsRing == 0 && c.obsLevel() >= obs.Trace {
		c.ObsRing = srv.ObsRingSize
	}
	return c
}

// obsLevel parses the session's observability level; an unset or
// unparsable value reads as Off (validate rejects bad values at
// admission, so restored sessions can only hold levels that parse).
func (c SessionConfig) obsLevel() obs.Level {
	lvl, err := obs.ParseLevel(c.Obs)
	if err != nil {
		return obs.Off
	}
	return lvl
}

// validate rejects a config at admission time, so nothing bad reaches
// an engine (or a snapshot) later.
func (c SessionConfig) validate(srv Config) error {
	if _, err := workloads.SchedAppByName(c.App); err != nil {
		return err
	}
	if _, err := model.SchemeFor(c.Policy); err != nil {
		return err
	}
	topo, err := cachesim.ParseTopology(c.Topology)
	if err != nil {
		return err
	}
	if err := c.machineConfig(topo).Validate(); err != nil {
		return err
	}
	if c.Scale <= 0 || c.Scale > srv.MaxScale {
		return fmt.Errorf("scale %v outside (0, %v]", c.Scale, srv.MaxScale)
	}
	if c.Quantum < srv.MinQuantum || c.Quantum > srv.MaxQuantum {
		return fmt.Errorf("quantum %d outside [%d, %d] cycles", c.Quantum, srv.MinQuantum, srv.MaxQuantum)
	}
	if c.PanicAtBoundary > 0 && !srv.EnableChaos {
		return fmt.Errorf("panic_at_boundary requires a server started with chaos injection enabled")
	}
	if _, err := obs.ParseLevel(c.Obs); err != nil {
		return err
	}
	if c.ObsRing < 0 {
		return fmt.Errorf("obs_ring %d is negative", c.ObsRing)
	}
	return nil
}

// machineConfig maps the session's platform knobs to the paper's
// machines, exactly as atsim's flags do.
func (c SessionConfig) machineConfig(topo cachesim.Topology) machine.Config {
	cfg := machine.UltraSPARC1()
	if c.CPUs != 1 {
		cfg = machine.Enterprise5000(c.CPUs)
	}
	cfg.Topology = topo
	return cfg
}

// kv renders the config fields the engine cannot verify natively
// (policy, seed, CPU count, cache geometry and quantum are checked by
// rt itself) into the snapshot's config record, so a session snapshot
// can never resume a differently-configured session.
func (c SessionConfig) kv() []snapshot.KV {
	out := []snapshot.KV{
		{K: "app", V: c.App},
		{K: "scale", V: fmt.Sprintf("%g", c.Scale)},
		{K: "noannot", V: fmt.Sprintf("%t", c.DisableAnnotations)},
		{K: "topology", V: c.Topology},
		{K: "panicat", V: fmt.Sprintf("%d", c.PanicAtBoundary)},
	}
	// Present only for observed sessions, so snapshots of obs-off
	// sessions keep the exact config record (and fingerprint) they had
	// before observability existed — old snapshots stay resumable.
	if lvl := c.obsLevel(); lvl != obs.Off {
		out = append(out,
			snapshot.KV{K: "obs", V: lvl.String()},
			snapshot.KV{K: "obsring", V: fmt.Sprintf("%d", c.ObsRing)},
		)
	}
	return out
}

// Result is a completed session's outcome. Fingerprint is the CRC64 of
// the engine's complete final state — the equality the crash tests
// compare: a session stepped, evicted, resumed and crash-recovered any
// number of times finishes with the same fingerprint as an
// uninterrupted run of the same config.
type Result struct {
	Fingerprint string `json:"fingerprint"`
	ERefs       uint64 `json:"e_refs"`
	EMisses     uint64 `json:"e_misses"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Dispatches  uint64 `json:"dispatches"`
}

// Session is one hosted simulation. Fields below mu are guarded by it;
// stepMu serializes step execution (a cap-1 semaphore so waiting
// honors contexts).
type Session struct {
	ID     string
	Tenant string
	Cfg    SessionConfig

	stepMu chan struct{}

	mu      sync.Mutex
	deleted bool
	state   State
	// snap is the latest boundary capture when it lives in memory;
	// onDisk reports that the snapshot file is current. Both false/nil
	// means no progress yet (a step starts from cycle 0).
	snap   *snapshot.State
	onDisk bool
	// gen counts manifest-relevant mutations; cleanGen is gen as of the
	// last successful manifest write, so gen != cleanGen means "dirty"
	// and a persist that raced a mutation never marks it clean.
	gen        uint64
	cleanGen   uint64
	boundaries uint64
	cycle      uint64
	evictions  uint64
	resumes    uint64
	result     *Result
	failure    string
	lastTouch  uint64
	live       *liveEngine
	// epoch is the session's fencing epoch: bumped once per migration
	// attempt, recorded in the intent before the transfer and in both
	// manifests after. The target refuses any envelope at or below an
	// epoch it has already seen or fenced, which is what makes crash
	// recovery exactly-once (re-push or reclaim, never both).
	epoch uint64
	// migratedTo is the committed target's base URL once state is
	// StateMigrated — the Location a 410 response carries.
	migratedTo string
	// migratedFrom records provenance: the source instance (when it
	// announced one) this session last migrated in from.
	migratedFrom string
	// events is the lifecycle log behind /events; closed once the
	// session is deleted or migrated away.
	events *seqLog[Event]
	// obsLog is the published engine-event stream: drained from the
	// engine's obs stream ring at quantum boundaries, consumed by the
	// /obs endpoint. Seqs are global emission indices, stable across
	// evictions, resumes and restarts: a resumed engine re-emits the
	// same sequence from cycle zero and publishObs skips the
	// already-published prefix. Always non-nil; empty and
	// closed for unobserved or restored-terminal sessions.
	obsLog *seqLog[obs.Event]
}

func newSession(id, tenant string, cfg SessionConfig, obsLogCap int) *Session {
	return &Session{
		ID: id, Tenant: tenant, Cfg: cfg,
		stepMu: make(chan struct{}, 1),
		state:  StateIdle,
		gen:    1,
		events: newSeqLog[Event](eventLogCap),
		obsLog: newSeqLog[obs.Event](obsLogCap),
	}
}

// lockStep acquires the session's step slot, honoring ctx.
func (sess *Session) lockStep(ctx context.Context) error {
	select {
	case sess.stepMu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &DeadlineError{Op: "waiting for an in-flight step of session " + sess.ID, Err: ctx.Err()}
	}
}

func (sess *Session) unlockStep() { <-sess.stepMu }

// noteBoundary records the boundary the engine just crossed, its
// n-th; called from the engine's checkpoint callback. The count is the
// engine's, not an increment of the manifest's: a resumed engine
// counts the boundaries it replayed, so the session reports what an
// uninterrupted run would even when a crash left the manifest out of
// step with the receipt it resumed from.
func (sess *Session) noteBoundary(st *snapshot.State, n uint64) {
	sess.mu.Lock()
	sess.snap = st
	sess.onDisk = false
	sess.gen++
	sess.boundaries = n
	sess.cycle = st.Now
	sess.mu.Unlock()
	sess.events.push(Event{Kind: "boundary", Boundaries: n, Cycle: st.Now})
}

// migrationGateLocked refuses writes against sessions that committed
// to another instance (410 + location) or whose handoff is still in
// flight (409). Callers hold sess.mu.
func (sess *Session) migrationGateLocked() error {
	switch sess.state {
	case StateMigrated:
		return &MigratedError{ID: sess.ID, Location: sess.migratedTo}
	case StateMigrating:
		return &MigratingError{ID: sess.ID}
	}
	return nil
}

// outcomeLocked composes the step-visible view of the session. Callers
// hold sess.mu.
func (sess *Session) outcomeLocked() stepOutcome {
	return stepOutcome{
		state:      sess.state,
		boundaries: sess.boundaries,
		cycle:      sess.cycle,
		evictions:  sess.evictions,
		result:     sess.result,
		failure:    sess.failure,
	}
}

// Info is the API-visible session summary.
type Info struct {
	ID           string        `json:"id"`
	Tenant       string        `json:"tenant"`
	State        State         `json:"state"`
	Config       SessionConfig `json:"config"`
	Boundaries   uint64        `json:"boundaries"`
	Cycle        uint64        `json:"cycle"`
	Evictions    uint64        `json:"evictions"`
	Resumes      uint64        `json:"resumes"`
	Result       *Result       `json:"result,omitempty"`
	Failure      string        `json:"failure,omitempty"`
	Epoch        uint64        `json:"epoch,omitempty"`
	MigratedTo   string        `json:"migrated_to,omitempty"`
	MigratedFrom string        `json:"migrated_from,omitempty"`
}

func (sess *Session) info() Info {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return Info{
		ID: sess.ID, Tenant: sess.Tenant, State: sess.state, Config: sess.Cfg,
		Boundaries: sess.boundaries, Cycle: sess.cycle,
		Evictions: sess.evictions, Resumes: sess.resumes,
		Result: sess.result, Failure: sess.failure,
		Epoch: sess.epoch, MigratedTo: sess.migratedTo, MigratedFrom: sess.migratedFrom,
	}
}

// errEvictRequested aborts a run at a quantum boundary: the engine is
// being evicted (or the server is draining), not failing. It travels
// through rt.Engine.Run wrapped, hence errors.Is below.
var errEvictRequested = errors.New("server: evict requested at boundary")

// grant hands one step's budget to the session's engine. quanta == 0
// means run to completion. outcome is buffered so the engine never
// blocks answering a handler that already gave up.
type grant struct {
	quanta  uint64
	outcome chan stepOutcome
	// req is the X-Request-ID of the step that issued the grant, so
	// the engine-side trace spans join the request's server spans.
	req string
}

type stepOutcome struct {
	state      State
	boundaries uint64
	cycle      uint64
	evictions  uint64
	result     *Result
	failure    string
	// evicted marks an outcome delivered because the engine unwound
	// (eviction/drain) before the grant was satisfied; remaining is the
	// unexecuted part of the grant's budget, so the caller can resume
	// the step transparently (0 after an unlimited grant — retrying 0
	// again means "to completion", which is what was asked).
	evicted   bool
	remaining uint64
}

// liveEngine is a resident engine: one session goroutine (loop)
// calling rt.Engine.Run, controlled through the checkpoint-boundary
// gate. Inside Run the engine code — onBoundary included — runs on
// whichever thread goroutine holds the run loop, one at a time, with a
// channel handoff between them; the session goroutine waits in Run.
// All fields below the channels belong to the engine: the session
// goroutine outside Run, the loop's holder inside it.
type liveEngine struct {
	srv  *Server
	sess *Session

	grants   chan *grant
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	// phase is the engine's claim state. Transitions are CAS-only in
	// the directions that race: the engine takes
	// parked→busy when it accepts a grant, and an evictor takes
	// parked→evicting to reserve a victim. Exactly one wins, so a
	// pressure eviction can never land on an engine that has started
	// executing a step — an accepted-but-claimed grant is handed back
	// untouched instead (full budget, retried by Step).
	phase atomic.Int32

	eng          *rt.Engine
	current      *grant
	credit       uint64
	unlimited    bool
	holdingToken bool
	// obsv is the session's engine observer (nil when the session's
	// obs level is off). Its rings are single-writer state of the
	// engine; the rest of the server only sees events after
	// publishObs copies them into the session's obsLog.
	obsv *obs.Observer
	// runStart is the wall clock at compute-token acquisition for the
	// current grant; zero while parked. Feeds the engine.run spans.
	runStart time.Time
}

// liveEngine.phase values.
const (
	// engineParked: at the gate, no unconsumed step credit; the only
	// state an evictor may claim.
	engineParked int32 = iota
	// engineBusy: holding step credit — queued for a token or
	// executing simulation.
	engineBusy
	// engineEvicting: reserved by an evictor; the engine unwinds
	// instead of accepting work.
	engineEvicting
)

func newLiveEngine(s *Server, sess *Session) *liveEngine {
	return &liveEngine{
		srv: s, sess: sess,
		grants: make(chan *grant, 4),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// requestStop asks the engine to unwind at its next gate visit
// (immediately if parked). Idempotent.
func (le *liveEngine) requestStop() { le.stopOnce.Do(func() { close(le.stop) }) }

// loop is the session goroutine. Any panic — an injected chaos panic, a
// workload bug, an engine invariant violation — is recovered HERE, so
// it fails exactly this session while the server and every other
// session keep running. Engine code panics on a thread goroutine;
// rt.Engine.Run re-raises it here as an *rt.EnginePanic carrying the
// stack of the goroutine where it happened.
func (le *liveEngine) loop() {
	var (
		runErr    error
		res       *Result
		completed bool
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				le.srv.met.panicsRecovered.Add(le.srv.shard(le.sess.ID), 1)
				stack := debug.Stack()
				if ep, ok := r.(*rt.EnginePanic); ok {
					stack = ep.Stack
				}
				runErr = fmt.Errorf("session panicked: %v\n\n%s", r, stack)
				completed = false
			}
		}()
		res, completed, runErr = le.run()
	}()
	// Final drain: events past the last boundary (the completion tail,
	// or whatever a panic/stall/abort left in the ring) reach the
	// obsLog before the exit closes it, so /obs followers see the
	// engine's last recorded moments.
	le.publishObs()
	le.endRunSpan()
	le.srv.engineExited(le, res, completed, runErr)
}

// publishObs drains the observer's stream ring into the session's
// obsLog, past the log's cursor. Events the ring already overwrote are
// skipped — the seq discontinuity is the durable record of the loss.
// Must run as engine code — inside a checkpoint callback, or on the
// session goroutine once Run has returned — since the ring is
// single-writer and draining between emissions is only safe from the
// writer's side.
func (le *liveEngine) publishObs() {
	r := le.obsv.Stream()
	if r == nil {
		return
	}
	l := le.sess.obsLog
	evs, dropped := r.Since(l.lastSeq())
	l.skip(dropped)
	if len(evs) > 0 {
		l.push(evs...)
	}
}

// endRunSpan closes the current engine.run span, if one is open.
func (le *liveEngine) endRunSpan() {
	if le.runStart.IsZero() {
		return
	}
	var req string
	if le.current != nil {
		req = le.current.req
	}
	sess := le.sess
	sess.mu.Lock()
	cycle, bnds := sess.cycle, sess.boundaries
	sess.mu.Unlock()
	le.srv.spans.push(span{
		name: "engine.run", sess: sess.ID, req: req,
		start: le.runStart, dur: time.Since(le.runStart),
		cycle: cycle, boundaries: bnds,
	})
	le.runStart = time.Time{}
}

// run executes the session until completion, eviction, failure, or
// hard cancellation. It parks before doing ANY work: ensuring a
// session live costs nothing until a step grants it credit.
func (le *liveEngine) run() (res *Result, completed bool, err error) {
	if !le.waitGrant() {
		return nil, false, nil
	}
	defer le.releaseToken()
	sess, cfg := le.sess, le.sess.Cfg

	app, err := workloads.SchedAppByName(cfg.App)
	if err != nil {
		return nil, false, err // unreachable: validated at admission
	}
	topo, err := cachesim.ParseTopology(cfg.Topology)
	if err != nil {
		return nil, false, err
	}
	st, err := le.srv.loadResume(sess)
	if err != nil {
		return nil, false, err
	}
	mcfg := cfg.machineConfig(topo)
	if lvl := cfg.obsLevel(); lvl != obs.Off {
		// The stream ring shares the event rings' capacity: it holds
		// the emission-order tail the live /obs endpoint drains at each
		// boundary. Sized per session (cfg.ObsRing) because the event
		// rings feed the resume-verified obs digest.
		le.obsv = obs.New(mcfg.CPUs, obs.Options{
			Level:      lvl,
			RingSize:   cfg.ObsRing,
			StreamSize: cfg.ObsRing,
		})
	}
	m := machine.New(mcfg)
	e, err := rt.New(sim.New(m), rt.Options{
		Policy:             cfg.Policy,
		Seed:               cfg.Seed,
		DisableAnnotations: cfg.DisableAnnotations,
		StallTimeout:       le.srv.cfg.StallTimeout,
		Obs:                le.obsv,
		Checkpoint: rt.CheckpointConfig{
			Every:        cfg.Quantum,
			Config:       cfg.kv(),
			Resume:       st,
			OnCheckpoint: le.onBoundary,
		},
	})
	if err != nil {
		return nil, false, err
	}
	le.eng = e
	if st != nil {
		sess.noteResumed(st)
		le.srv.met.sessionsResumed.Add(le.srv.shard(sess.ID), 1)
	}
	app.Spawn(e, cfg.Scale)
	err = e.Run(le.srv.baseCtx)
	if !e.Resuming() {
		// Past the resume point the engine's count is authoritative,
		// also for a run that ends without crossing another boundary.
		sess.mu.Lock()
		sess.boundaries = e.Boundaries()
		sess.mu.Unlock()
	}
	switch {
	case err == nil:
		refs, _, misses := m.Totals()
		return &Result{
			Fingerprint: fmt.Sprintf("%016x", e.CaptureState().Fingerprint()),
			ERefs:       refs,
			EMisses:     misses,
			Cycles:      m.MaxCycles(),
			Instrs:      m.TotalInstrs(),
			Dispatches:  e.Snapshot().TotalDispatches(),
		}, true, nil
	case errors.Is(err, errEvictRequested):
		return nil, false, nil
	default:
		return nil, false, err
	}
}

// onBoundary is the checkpoint-boundary gate, called by the engine at
// every Quantum multiple: deliver the fresh capture, pay one credit,
// and when the grant is spent park until the next one (or unwind on
// eviction). Returning errEvictRequested aborts Run with the session's
// newest boundary state already delivered — eviction loses nothing.
func (le *liveEngine) onBoundary(st *snapshot.State) error {
	n := le.eng.Boundaries()
	le.sess.noteBoundary(st, n)
	le.srv.met.boundaries.Add(le.srv.shard(le.sess.ID), 1)
	// Publish BEFORE the chaos panic check: events up to this boundary
	// are visible to followers even when the very next instruction
	// kills the engine.
	le.publishObs()
	if pa := le.sess.Cfg.PanicAtBoundary; pa > 0 && n >= pa {
		panic(fmt.Sprintf("chaos: injected panic at boundary %d", n))
	}
	if !le.unlimited {
		// The boundary just delivered is paid for BEFORE the stop check,
		// so an eviction's reported remaining budget is exact and a
		// resumed step never re-runs a quantum it already received.
		le.credit--
		if le.credit == 0 {
			le.endRunSpan()
			// Re-park and give the compute token back BEFORE answering:
			// a Step that returns must find its engine evictable and
			// its token free. The CAS never overwrites an evictor's
			// claim.
			le.phase.CompareAndSwap(engineBusy, engineParked)
			le.releaseToken()
			le.answerCurrent(le.sess.snapshotOutcome())
			if !le.waitGrant() {
				return errEvictRequested
			}
			return nil
		}
	}
	select {
	case <-le.stop:
		return errEvictRequested
	default:
	}
	return nil
}

// waitGrant blocks the engine — the session goroutine before Run, or
// inside onBoundary the thread goroutine holding the run loop — until
// the next grant arrives, acquiring a compute token before returning
// true; false means eviction/shutdown was requested. The caller has
// already re-parked the engine and released its token. The stall
// watchdog's clock is stopped for as long as the engine waits here: a
// gated session is idle, not stalled.
func (le *liveEngine) waitGrant() bool {
	select {
	case <-le.stop:
		return false
	case g := <-le.grants:
		le.current = g
		le.credit = g.quanta
		le.unlimited = g.quanta == 0
		if !le.phase.CompareAndSwap(engineParked, engineBusy) {
			// An evictor claimed this engine while it was parked.
			// Unwind without executing; the exit path answers the
			// grant with its budget intact so Step retries it
			// against a resumed engine.
			return false
		}
		select {
		case <-le.stop:
			return false
		case le.srv.tokens <- struct{}{}:
			le.holdingToken = true
			le.runStart = time.Now()
			return true
		}
	}
}

func (le *liveEngine) releaseToken() {
	if le.holdingToken {
		<-le.srv.tokens
		le.holdingToken = false
	}
}

// answerCurrent delivers out to the in-flight grant, if any.
func (le *liveEngine) answerCurrent(out stepOutcome) {
	if le.current != nil {
		le.current.outcome <- out
		le.current = nil
	}
}

// snapshotOutcome is outcomeLocked behind the lock.
func (sess *Session) snapshotOutcome() stepOutcome {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.outcomeLocked()
}

func (sess *Session) noteResumed(st *snapshot.State) {
	sess.mu.Lock()
	sess.resumes++
	sess.gen++
	n := sess.boundaries
	sess.mu.Unlock()
	sess.events.push(Event{Kind: "resumed", Cycle: st.Now, Boundaries: n})
}

// manifestLocked renders the session's durable record. Callers hold
// sess.mu. A manifest never claims "live": an engine does not survive
// the process, so on disk a live session is an idle one. "migrating"
// likewise renders as idle — the intent record, not the manifest, is
// the durable marker of an in-flight handoff, so a crash mid-migration
// restores an idle session plus an intent to resolve.
func (sess *Session) manifestLocked() manifest {
	st := sess.state
	if st == StateLive || st == StateMigrating {
		st = StateIdle
	}
	return manifest{
		ID: sess.ID, Tenant: sess.Tenant, Config: sess.Cfg, State: st,
		Boundaries: sess.boundaries, Cycle: sess.cycle,
		Evictions: sess.evictions, Resumes: sess.resumes,
		Result: sess.result, Failure: sess.failure,
		Epoch: sess.epoch, MigratedTo: sess.migratedTo, MigratedFrom: sess.migratedFrom,
	}
}
