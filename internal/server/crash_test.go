package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// TestCrashSchedules explores crashes through the server's one fault
// seam (Server.crash). Each seed generates a sequential op script —
// create, step, finish, evict, delete, migrate, a poisoned session, a
// corrupt file, a restart — over one instance or a pair, and picks a
// crash at the n-th hit of one point: a migration phase boundary or a
// durable store mutation. Pair scenarios may also drop or duplicate
// one migration response in the target's HTTP front. When the crash
// fires the instance goes inert; the test boots a fresh Server over
// the same directory, lets intents resolve and carries on. At the end
// both instances restart once more and every invariant of
// docs/SERVICE.md's crash model is checked:
//
//  1. every acknowledged create exists after the restart;
//  2. every session finishes with its control twin's fingerprint and
//     boundary count (a poisoned one fails instead);
//  3. every session has exactly one live owner, and an acknowledged
//     delete leaves none;
//  4. an instance never reports a lower epoch for a session than it
//     did before, and the owner holds every acknowledged epoch;
//  5. no intent outlives resolution;
//  6. /obs seqs continue gap-free across a committed handoff.
//
// Ops are sequential, so a failing seed replays exactly:
//
//	go test -run 'TestCrashSchedules/seed=N$' ./internal/server
//
// When every schedule ran, the test also asserts its coverage: both
// scenarios, every crash point, a dropped and a duplicated migration
// response.
func TestCrashSchedules(t *testing.T) {
	ctl := &controls{srv: newTestServer(t, nil), got: map[SessionConfig]StepResult{}}
	cov := &crashCoverage{fired: map[string]int{}, seen: map[string]bool{}, kinds: map[string]int{}}
	var ran atomic.Int64
	t.Cleanup(func() {
		if ran.Load() == crashSchedules {
			cov.check(t)
		}
	})
	for seed := uint64(1); seed <= crashSchedules; seed++ {
		sc := makeSchedule(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ran.Add(1)
			runSchedule(t, sc, ctl, cov)
		})
	}
}

// crashSchedules is the number of seeded schedules, under -short too.
const crashSchedules = 216

// crashPoints are all the points Server.crash is passed at.
var crashPoints = []string{
	"source.prepared", "source.intent", "source.push", "source.acked", "source.committed",
	"target.received", "target.snapshot", "target.manifest",
	"write.manifest", "write.snap", "write.intent",
	"remove.manifest", "remove.snap", "remove.intent",
	"rename.manifest", "rename.intent",
}

type opKind int

const (
	opCreate opKind = iota
	opPoison        // create a session that panics at its first boundary
	opStep
	opFinish
	opEvict
	opDelete
	opMigrate
	opCorruptManifest // plant an unreadable manifest on the victim
	opCorruptIntent   // plant an unreadable intent on the victim
	opReboot          // restart the victim without a crash
)

var opNames = [...]string{"create", "poison", "step", "finish", "evict", "delete", "migrate",
	"corrupt-manifest", "corrupt-intent", "reboot"}

// crashOp is one script step. pick selects a tracked session: -1 the
// newest, otherwise an index modulo the sessions still addressable.
type crashOp struct {
	kind   opKind
	pick   int
	quanta uint64
	cfg    SessionConfig
}

func (o crashOp) String() string { return fmt.Sprintf("%s(%d)", opNames[o.kind], o.pick) }

// crashSchedule is one seed's script and fault.
type crashSchedule struct {
	seed   uint64
	pair   bool
	point  string
	nth    int
	victim int    // index of the instance the crash point is armed on
	msg    string // "", "drop" or "dup": the target's front mangles one push
	ops    []crashOp
}

// makeSchedule derives a schedule from its seed alone. The crash point
// rotates with the seed, so every point is armed in some schedule; the
// script always carries, nth times, an op sequence that hits it.
func makeSchedule(seed uint64) crashSchedule {
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + 7)
	np := uint64(len(crashPoints))
	sc := crashSchedule{seed: seed, point: crashPoints[seed%np], nth: 1 + int(seed/np%3)}
	migration := strings.HasPrefix(sc.point, "source.") || strings.HasPrefix(sc.point, "target.")
	sc.pair = migration || sc.point == "write.intent" || rng.Bool(0.4)
	switch {
	case strings.HasPrefix(sc.point, "target."):
		sc.victim = 1
	case !migration && sc.pair && sc.point != "write.intent":
		sc.victim = rng.Intn(2)
	}
	if sc.pair {
		sc.msg = []string{"", "drop", "dup"}[rng.Intn(3)]
	}
	newCfg := func() SessionConfig {
		cfg := testSessionConfig(1 + rng.Uint64n(6))
		cfg.Policy = []string{"LFF", "CRT", "FCFS"}[rng.Intn(3)]
		return cfg
	}
	mk := func(kind opKind, pick int) crashOp {
		o := crashOp{kind: kind, pick: pick, quanta: 1 + rng.Uint64n(3)}
		if kind == opCreate || kind == opPoison {
			o.cfg = newCfg()
			if kind == opPoison {
				o.cfg.PanicAtBoundary = 1
			}
		}
		return o
	}
	ops := []crashOp{mk(opCreate, 0)}
	for n := 4 + rng.Intn(6); n > 0; n-- {
		var kind opKind
		switch r := rng.Intn(20); {
		case r < 3:
			kind = opCreate
		case r < 8:
			kind = opStep
		case r < 9:
			kind = opFinish
		case r < 12:
			kind = opEvict
		case r < 13:
			kind = opDelete
		case r < 14:
			kind = opPoison
		case r < 15:
			kind = opReboot
		case sc.pair:
			kind = opMigrate
		default:
			kind = opStep
		}
		ops = append(ops, mk(kind, rng.Intn(8)))
	}
	for i := 0; i < sc.nth; i++ {
		at := 1 + rng.Intn(len(ops))
		must := sc.mustOps(mk)
		ops = append(ops[:at], append(must, ops[at:]...)...)
	}
	sc.ops = ops
	return sc
}

// mustOps is an op sequence that passes the schedule's crash point on
// its victim at least once.
func (sc crashSchedule) mustOps(mk func(opKind, int) crashOp) []crashOp {
	step := mk(opStep, -1)
	step.quanta = 2
	onB := sc.victim == 1
	switch sc.point {
	case "rename.manifest":
		return []crashOp{mk(opCorruptManifest, 0), mk(opReboot, 0)}
	case "rename.intent":
		return []crashOp{mk(opCorruptIntent, -1), mk(opReboot, 0)}
	}
	seq := []crashOp{mk(opCreate, 0), step}
	if onB || sc.point == "write.intent" || strings.HasPrefix(sc.point, "source.") || strings.HasPrefix(sc.point, "target.") {
		seq = append(seq, mk(opMigrate, -1))
	}
	switch sc.point {
	case "write.snap", "write.manifest":
		// An eviction writes the receipt, then the manifest: a crash
		// between them leaves the manifest behind the receipt.
		if !onB {
			seq = append(seq, mk(opEvict, -1))
		}
	case "remove.snap":
		seq = append(seq, mk(opFinish, -1))
	case "remove.manifest", "remove.intent":
		seq = append(seq, mk(opDelete, -1))
	}
	return seq
}

// crasher is the crash hook of a schedule's victim: it fires once, at
// the nth hit of its point, across every incarnation of the node.
type crasher struct {
	point string
	nth   int
	cov   *crashCoverage

	mu     sync.Mutex
	hits   int
	spent  bool
	firing bool // fired and not yet handled by the script runner
}

func (c *crasher) hook(_ *node, p string) error {
	c.cov.see(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spent || p != c.point {
		return nil
	}
	if c.hits++; c.hits < c.nth {
		return nil
	}
	c.spent, c.firing = true, true
	c.cov.fire(p)
	return fmt.Errorf("%w at %s", errSimCrash, p)
}

// takeFiring reports (once) that the hook fired.
func (c *crasher) takeFiring() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.firing
	c.firing = false
	return f
}

func (c *crasher) disarm() {
	c.mu.Lock()
	c.spent = true
	c.mu.Unlock()
}

// tracked is the script's model of one acknowledged session.
type tracked struct {
	id       string
	cfg      SessionConfig
	owner    int  // instance holding the live copy; -1 while unknown
	migrated bool // some migration of it was attempted
	deleting bool // some delete of it was attempted
	deleted  bool // a delete of it was acknowledged
	replaced bool // a later create reused its ID (it was deleted)
	epoch    uint64
}

// crashRun is one schedule in flight.
type crashRun struct {
	t     *testing.T
	sc    crashSchedule
	ctl   *controls
	cov   *crashCoverage
	nodes []*node
	c     *crasher
	sess  []*tracked
	// seen is, per instance, the newest epoch each session showed there.
	seen []map[string]uint64
}

func (r *crashRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed=%d point=%s#%d victim=%d msg=%q: %s\nreplay: go test -run 'TestCrashSchedules/seed=%d$' ./internal/server",
		r.sc.seed, r.sc.point, r.sc.nth, r.sc.victim, r.sc.msg, fmt.Sprintf(format, args...), r.sc.seed)
}

func runSchedule(t *testing.T, sc crashSchedule, ctl *controls, cov *crashCoverage) {
	r := &crashRun{t: t, sc: sc, ctl: ctl, cov: cov,
		c: &crasher{point: sc.point, nth: sc.nth, cov: cov}}
	n := 1
	kind := "single"
	if sc.pair {
		n, kind = 2, "pair"
	}
	cov.kind(kind)
	for i := 0; i < n; i++ {
		var hook func(*node, string) error
		if i == sc.victim {
			hook = r.c.hook
		}
		r.nodes = append(r.nodes, newNode(t, hook))
		r.seen = append(r.seen, map[string]uint64{})
	}
	if sc.msg != "" {
		r.nodes[1].front = r.mangleFirstPush()
	}
	for i, o := range sc.ops {
		r.apply(o)
		if r.c.takeFiring() {
			r.recover(fmt.Sprintf("after op %d %v", i, o))
		}
		r.observeEpochs()
	}
	// The final restart: whatever was acknowledged must be on disk.
	for {
		for _, nd := range r.nodes {
			nd.boot(r.hookFor(nd))
		}
		if !r.c.takeFiring() {
			break
		}
	}
	r.c.disarm()
	r.settle("after the final restart")
	r.observeEpochs()
	r.checkFinal()
}

func (r *crashRun) hookFor(nd *node) func(*node, string) error {
	if nd == r.nodes[r.sc.victim] {
		return r.c.hook
	}
	return nil
}

// recover restarts the crashed victim over its directory, as a process
// supervisor would, and waits for its intents to resolve. A restart
// can itself crash (the point may be one boot passes), so it repeats.
func (r *crashRun) recover(when string) {
	for {
		v := r.nodes[r.sc.victim]
		v.boot(r.c.hook)
		if !r.c.takeFiring() {
			break
		}
	}
	r.settle(when)
}

// settle waits until no session on any instance is mid-handoff, then
// requires every intent gone (invariant 5), and re-locates sessions
// whose owner a crash left unknown.
func (r *crashRun) settle(when string) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		busy := ""
		for _, nd := range r.nodes {
			for _, in := range nd.server().List() {
				if in.State == StateMigrating {
					busy = in.ID
				}
			}
		}
		if busy == "" {
			break
		}
		if time.Now().After(deadline) {
			r.fatalf("%s: session %s still migrating after 15s", when, busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, nd := range r.nodes {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ins, _, err := nd.server().store.scanIntents()
			if err == nil && len(ins) == 0 {
				break
			}
			if time.Now().After(deadline) {
				r.fatalf("%s: instance %d still holds intents %+v (err %v) after resolution", when, i, ins, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, s := range r.sess {
		if !s.replaced {
			s.owner = r.locate(s.id)
		}
	}
}

// locate returns the instance holding the live (non-tombstone) copy
// of id, -1 if none does, and fails on two (invariant 3).
func (r *crashRun) locate(id string) int {
	owner := -1
	for i, nd := range r.nodes {
		in, err := nd.server().Get(id)
		if err != nil || in.State == StateMigrated {
			continue
		}
		if owner >= 0 {
			r.fatalf("session %s is live on instances %d and %d", id, owner, i)
		}
		owner = i
	}
	return owner
}

// pick resolves an op's session among those not known deleted.
func (r *crashRun) pick(p int) *tracked {
	var live []*tracked
	for _, s := range r.sess {
		if !s.deleted && !s.replaced {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if p < 0 {
		return live[len(live)-1]
	}
	return live[p%len(live)]
}

// tolerable reports whether err is an outcome the protocol allows for
// an op that did not crash.
func tolerable(err error) bool {
	var (
		over *OverloadError
		mig  *MigratingError
		gone *MigratedError
		conf *ConflictError
		fen  *FencedError
	)
	return err == nil || errors.Is(err, ErrNotFound) || errors.As(err, &over) ||
		errors.As(err, &mig) || errors.As(err, &gone) || errors.As(err, &conf) || errors.As(err, &fen)
}

func (r *crashRun) check(o crashOp, err error) {
	r.t.Helper()
	// An instance that just died may report anything.
	if !tolerable(err) && !r.crashing() {
		r.fatalf("op %v: %v", o, err)
	}
}

func (r *crashRun) apply(o crashOp) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	a := r.nodes[0]
	switch o.kind {
	case opCreate, opPoison:
		info, err := a.server().CreateSession(ctx, "", o.cfg)
		r.check(o, err)
		if err != nil || r.crashing() {
			return // a dead process acknowledges nothing
		}
		for _, s := range r.sess {
			if s.id == info.ID {
				if s.owner >= 0 && !s.deleted {
					r.fatalf("create reused the ID of live session %s", s.id)
				}
				s.replaced = true
			}
		}
		r.sess = append(r.sess, &tracked{id: info.ID, cfg: info.Config})
		return
	case opCorruptManifest:
		v := r.nodes[r.sc.victim]
		path := filepath.Join(v.dir, fmt.Sprintf("s-9%05d.json", r.sc.seed))
		if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
			r.t.Fatal(err)
		}
		return
	case opReboot:
		r.nodes[r.sc.victim].boot(r.hookFor(r.nodes[r.sc.victim]))
		if !r.crashing() {
			r.settle("after a clean restart")
		}
		return
	}
	s := r.pick(o.pick)
	if s == nil || s.owner < 0 {
		return
	}
	own := r.nodes[s.owner].server()
	var (
		res StepResult
		err error
	)
	switch o.kind {
	case opStep:
		res, err = own.Step(ctx, s.id, o.quanta)
	case opFinish:
		res, err = own.Step(ctx, s.id, 0)
	case opEvict:
		_, err = own.Evict(ctx, s.id)
	case opDelete:
		s.deleting = true
		if err = own.Delete(ctx, s.id); err == nil && !r.crashing() {
			s.deleted = true
		}
	case opCorruptIntent:
		v := r.nodes[r.sc.victim]
		if err := os.WriteFile(filepath.Join(v.dir, s.id+".intent.json"), []byte("{torn"), 0o644); err != nil {
			r.t.Fatal(err)
		}
		return
	case opMigrate:
		if s.owner != 0 || len(r.nodes) < 2 {
			return
		}
		r.migrate(ctx, o, s)
		return
	}
	r.check(o, err)
	if err == nil && res.State == StateFailed && s.cfg.PanicAtBoundary == 0 {
		r.fatalf("op %v: session %s failed: %s", o, s.id, res.Failure)
	}
}

// migrate hands s from instance 0 to 1. A committed handoff must
// continue the session's /obs stream at the source's cursor
// (invariant 6), checked with one step on the target.
func (r *crashRun) migrate(ctx context.Context, o crashOp, s *tracked) {
	a, b := r.nodes[0].server(), r.nodes[1].server()
	var cursor uint64
	if src, err := a.lookup(s.id); err == nil {
		cursor = src.obsLog.lastSeq()
	}
	s.migrated = true
	res, err := a.Migrate(ctx, s.id, r.nodes[1].url())
	r.check(o, err)
	if r.crashing() {
		s.owner = -1 // settled by the recovery that follows
		return
	}
	if err != nil {
		s.owner = r.locate(s.id)
		return
	}
	s.owner = 1
	if res.Epoch > s.epoch {
		s.epoch = res.Epoch
	}
	if cursor == 0 || s.cfg.PanicAtBoundary != 0 {
		return
	}
	if _, err := b.Step(ctx, s.id, 1); err != nil || r.crashing() {
		r.check(o, err)
		return
	}
	dst, err := b.lookup(s.id)
	if err != nil {
		r.fatalf("migrated session %s missing on the target: %v", s.id, err)
	}
	after, dropped, _, _ := dst.obsLog.since(cursor)
	if len(after) == 0 || after[0].seq != cursor+1 || dropped != 0 {
		first := uint64(0)
		if len(after) > 0 {
			first = after[0].seq
		}
		r.fatalf("obs stream of %s across the handoff: cursor %d, target continues at %d with %d dropped", s.id, cursor, first, dropped)
	}
}

func (r *crashRun) crashing() bool {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.c.firing
}

// observeEpochs records every session's epoch on every instance and
// fails if one went down (invariant 4).
func (r *crashRun) observeEpochs() {
	if r.crashing() {
		return
	}
	for i, nd := range r.nodes {
		for _, in := range nd.server().List() {
			if prev, ok := r.seen[i][in.ID]; ok && in.Epoch < prev && !r.reused(in.ID) {
				r.fatalf("instance %d: session %s epoch fell from %d to %d", i, in.ID, prev, in.Epoch)
			}
			r.seen[i][in.ID] = in.Epoch
		}
	}
}

func (r *crashRun) reused(id string) bool {
	for _, s := range r.sess {
		if s.id == id && s.replaced {
			return true
		}
	}
	return false
}

// checkFinal runs invariants 1–4 after the final restart, finishing
// every live session — tracked or created by an unacknowledged create
// that still reached disk — against its control twin.
func (r *crashRun) checkFinal() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, s := range r.sess {
		if s.replaced {
			continue
		}
		switch {
		case s.deleted && s.owner >= 0:
			r.fatalf("session %s is live on instance %d after an acknowledged delete", s.id, s.owner)
		case !s.deleting && s.owner < 0:
			r.fatalf("acknowledged session %s lost (migrated=%v)", s.id, s.migrated)
		}
		if s.owner >= 0 {
			in, _ := r.nodes[s.owner].server().Get(s.id)
			if in.Epoch < s.epoch {
				r.fatalf("session %s holds epoch %d, below the acknowledged %d", s.id, in.Epoch, s.epoch)
			}
		}
	}
	var ids []string
	owners := map[string]int{}
	for i, nd := range r.nodes {
		for _, in := range nd.server().List() {
			if in.State == StateMigrated {
				continue
			}
			if _, dup := owners[in.ID]; dup {
				r.fatalf("session %s is live on two instances", in.ID)
			}
			owners[in.ID] = i
			ids = append(ids, in.ID)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		srv := r.nodes[owners[id]].server()
		in, err := srv.Get(id)
		if err != nil {
			r.fatalf("Get(%s): %v", id, err)
		}
		res, err := srv.Step(ctx, id, 0)
		if err != nil {
			r.fatalf("finishing %s on instance %d: %v", id, owners[id], err)
		}
		if in.Config.PanicAtBoundary != 0 {
			if res.State != StateFailed {
				r.fatalf("poisoned session %s ended %s, want failed", id, res.State)
			}
			continue
		}
		want := r.ctl.of(r.t, in.Config)
		if res.State != StateDone || res.Result == nil {
			r.fatalf("session %s ended %s: %s", id, res.State, res.Failure)
		}
		if res.Result.Fingerprint != want.Result.Fingerprint || res.Boundaries != want.Boundaries {
			r.fatalf("session %s finished with fingerprint %s at %d boundaries; control twin %s at %d",
				id, res.Result.Fingerprint, res.Boundaries, want.Result.Fingerprint, want.Boundaries)
		}
	}
}

// mangleFirstPush returns a target front that drops the response to,
// or duplicates, the first migration push it sees.
func (r *crashRun) mangleFirstPush() func(http.Handler, http.ResponseWriter, *http.Request) {
	var done atomic.Bool
	return func(h http.Handler, w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/v1/migrations/in" || !done.CompareAndSwap(false, true) {
			h.ServeHTTP(w, req)
			return
		}
		body, _ := io.ReadAll(req.Body)
		again := func() *http.Request {
			r2 := req.Clone(req.Context())
			r2.Body = io.NopCloser(bytes.NewReader(body))
			return r2
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, again())
		if rec.Code == http.StatusOK {
			r.cov.kind(r.sc.msg)
		}
		if r.sc.msg == "drop" {
			panic(http.ErrAbortHandler) // the ack is lost on the wire
		}
		h.ServeHTTP(w, again())
	}
}

// controls caches uninterrupted control twins by config.
type controls struct {
	srv *Server
	mu  sync.Mutex
	got map[SessionConfig]StepResult
}

func (c *controls) of(t *testing.T, cfg SessionConfig) StepResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.got[cfg]; ok {
		return res
	}
	twin := mustCreate(t, c.srv, "", cfg)
	res := mustFinish(t, c.srv, twin.ID)
	if err := c.srv.Delete(context.Background(), twin.ID); err != nil {
		t.Fatalf("deleting control twin: %v", err)
	}
	c.got[cfg] = res
	return res
}

// crashCoverage accumulates what the schedules exercised.
type crashCoverage struct {
	mu    sync.Mutex
	fired map[string]int
	seen  map[string]bool
	kinds map[string]int
}

func (c *crashCoverage) fire(p string) { c.mu.Lock(); c.fired[p]++; c.mu.Unlock() }
func (c *crashCoverage) see(p string)  { c.mu.Lock(); c.seen[p] = true; c.mu.Unlock() }
func (c *crashCoverage) kind(k string) { c.mu.Lock(); c.kinds[k]++; c.mu.Unlock() }

// check requires every passed point to be listed in crashPoints, every
// listed point to have fired, and every scenario and message fault to
// have happened.
func (c *crashCoverage) check(t *testing.T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.seen {
		if !slices.Contains(crashPoints, p) {
			t.Errorf("coverage: crash point %s is passed but not in crashPoints", p)
		}
	}
	for _, p := range crashPoints {
		if c.fired[p] == 0 {
			t.Errorf("coverage: crash point %s never fired in %d schedules", p, crashSchedules)
		}
	}
	for _, k := range []string{"single", "pair", "drop", "dup"} {
		if c.kinds[k] == 0 {
			t.Errorf("coverage: no schedule exercised %q", k)
		}
	}
	t.Logf("crash coverage: fired %v, scenarios %v", c.fired, c.kinds)
}
