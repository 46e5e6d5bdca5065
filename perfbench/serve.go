package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// serveWorkload is one in-process atsimd traffic mix.
type serveWorkload struct {
	population int     // resident sessions, kept constant
	maxLive    int     // server live-engine cap
	scale      float64 // session workload scale
	obs        string  // session obs level; "" keeps the server default (trace)
}

// churnServe keeps 32 sessions over 4 live slots, stepped round robin by
// one closed-loop client, so every step evicts a parked victim and
// resumes its own session.
var churnServe = serveWorkload{population: 32, maxLive: 4, scale: 0.15, obs: "off"}

const (
	// twinWorkers runs control twins in parallel, one per core of the
	// two-core hosts this benchmark targets.
	twinWorkers = 2
	// serveSeeds is how many distinct session seeds a run cycles
	// through; each has a control twin computed before timing.
	serveSeeds = 24
)

// sessionSeed derives session k's simulation seed from the workload seed.
func sessionSeed(seed uint64, k int) uint64 {
	return mix64(seed<<16+uint64(k)) | 1
}

func (w serveWorkload) session(seed uint64, k int) server.SessionConfig {
	return server.SessionConfig{App: "tasks", Policy: "LFF", CPUs: 2, Scale: w.scale,
		Seed: sessionSeed(seed, k%serveSeeds), Obs: w.obs}
}

// serverConfig is the workload's server; spanCap 0 keeps the default
// span ring, which a traced window would overflow.
func (w serveWorkload) serverConfig(dir string, spanCap int) server.Config {
	return server.Config{DataDir: dir, MaxLive: w.maxLive, StallTimeout: 2 * time.Minute, TraceSpanCap: spanCap}
}

// twin is an uninterrupted control run of one session seed.
type twin struct {
	fingerprint    string
	instrs, cycles uint64
	boundaries     uint64
}

// controlTwins runs every seed of the workload to completion, one Step
// each, on a server of its own: the reference every benchmark session
// must reproduce under eviction and resume.
func controlTwins(w serveWorkload, seed uint64, dir string) ([]twin, error) {
	srv, err := server.New(server.Config{DataDir: dir, MaxLive: serveSeeds})
	if err != nil {
		return nil, err
	}
	defer shutdown(srv)
	twins := make([]twin, serveSeeds)
	errs := make([]error, twinWorkers)
	var wg sync.WaitGroup
	for c := 0; c < twinWorkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < serveSeeds; k += twinWorkers {
				info, err := srv.CreateSession(context.Background(), "", w.session(seed, k))
				if err == nil {
					var res server.StepResult
					res, err = srv.Step(context.Background(), info.ID, 0)
					if err == nil && res.Result == nil {
						err = fmt.Errorf("control twin %d ended in state %s", k, res.State)
					}
					if err == nil {
						twins[k] = twin{res.Result.Fingerprint, res.Result.Instrs, res.Result.Cycles, res.Boundaries}
					}
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return twins, nil
}

func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = srv.Shutdown(ctx) // every caller is done with the server; a drain error changes nothing it reports
}

// client drives a server through its HTTP handler, in process, with no
// sockets. Every request carries a fresh X-Request-ID so the server's
// spans can be joined to the request that caused them.
type client struct {
	h      http.Handler
	prefix string
	n      int
}

type reply struct {
	status int
	body   []byte
	dur    time.Duration
	req    string
}

func (c *client) do(method, path string, body string) reply {
	c.n++
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	id := c.prefix + strconv.Itoa(c.n)
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, req)
	return reply{rec.Code, rec.Body.Bytes(), time.Since(t0), id}
}

func (c *client) create(cfg server.SessionConfig) (string, reply, error) {
	body, _ := json.Marshal(cfg)
	rep := c.do("POST", "/v1/sessions", string(body))
	if rep.status != http.StatusCreated {
		return "", rep, fmt.Errorf("create: HTTP %d: %s", rep.status, rep.body)
	}
	var info server.Info
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return "", rep, fmt.Errorf("create: %w", err)
	}
	return info.ID, rep, nil
}

func (c *client) step(id string) (server.StepResult, reply, error) {
	rep := c.do("POST", "/v1/sessions/"+id+"/step", "")
	var res server.StepResult
	if rep.status != http.StatusOK {
		return res, rep, fmt.Errorf("step %s: HTTP %d: %s", id, rep.status, rep.body)
	}
	if err := json.Unmarshal(rep.body, &res); err != nil {
		return res, rep, fmt.Errorf("step %s: %w", id, err)
	}
	return res, rep, nil
}

func (c *client) del(id string) (reply, error) {
	rep := c.do("DELETE", "/v1/sessions/"+id, "")
	if rep.status != http.StatusNoContent {
		return rep, fmt.Errorf("delete %s: HTTP %d: %s", id, rep.status, rep.body)
	}
	return rep, nil
}

// slot is one resident session of the population.
type slot struct {
	id           string
	k            int    // session index; seed index is k % serveSeeds
	cycle, instr uint64 // progress credited so far
}

// serveLog is what the client observed.
type serveLog struct {
	steps                  []stepSample // measured window only
	creates, deletes       []float64    // ms
	stepsTotal, sessionsOK int
	problems               []string
	err                    error
}

// stepSample is one Step round trip: how long it took, the session's
// cycle after it, the simulated instructions it completed and its
// request ID.
type stepSample struct {
	dur   time.Duration
	cycle uint64
	instr float64
	req   string
}

// serveRun is a populated server with its control twins, ready to load.
type serveRun struct {
	w     serveWorkload
	seed  uint64
	twins []twin
	srv   *server.Server
	dir   string
	// bootDir is a pristine copy of the store as populated; every timed
	// pass starts from a fresh copy of it.
	bootDir string
	nextK   int // session index of the next replacement session
}

// populate computes the control twins, fills the store with the
// population (sessions spread over their lifetimes, so a run starts in
// steady state) and keeps a pristine copy of it in bootDir.
func populate(r *run, w serveWorkload) (*serveRun, error) {
	twins, err := controlTwins(w, r.seed, filepath.Join(r.work, "control"))
	if err != nil {
		return nil, err
	}
	sr := &serveRun{w: w, seed: r.seed, twins: twins,
		dir: filepath.Join(r.work, "data"), bootDir: filepath.Join(r.work, "boot")}
	seedSrv, err := server.New(w.serverConfig(sr.dir, 0))
	if err != nil {
		return nil, err
	}
	for k := 0; k < w.population; k++ {
		info, err := seedSrv.CreateSession(context.Background(), "", w.session(r.seed, k))
		if err == nil {
			if age := twins[k%serveSeeds].boundaries * uint64(k) / uint64(w.population); age > 0 {
				_, err = seedSrv.Step(context.Background(), info.ID, age)
			}
		}
		if err != nil {
			shutdown(seedSrv)
			return nil, err
		}
	}
	shutdown(seedSrv)
	return sr, copyFiles(sr.dir, sr.bootDir)
}

// prepare populates the store, then boots the workload's server over it
// and steps every session once.
func prepare(r *run, w serveWorkload, spanCap int) (*serveRun, error) {
	sr, err := populate(r, w)
	if err != nil {
		return nil, err
	}
	sr.nextK = w.population
	if sr.srv, err = server.New(w.serverConfig(sr.dir, spanCap)); err != nil {
		return nil, err
	}
	cl := &client{h: sr.srv.Handler(), prefix: "warm-"}
	for _, info := range sr.srv.List() {
		if _, _, err := cl.step(info.ID); err != nil {
			shutdown(sr.srv)
			return nil, err
		}
	}
	return sr, nil
}

// copyFiles copies the regular files of the flat directory src into a
// new directory dst.
func copyFiles(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// load steps the population round robin through the handler for
// warmup+window, one quantum per step, as one closed-loop client. A
// finished session's fingerprint is checked against its control twin,
// then it is deleted and replaced by the next session index. Steps are
// recorded only after warmup.
func (sr *serveRun) load(warmup, window time.Duration) *serveLog {
	start := time.Now()
	measureFrom, stop := start.Add(warmup), start.Add(warmup+window)
	slots := sr.slots(sr.srv.List())
	cl := &client{h: sr.srv.Handler(), prefix: "load-"}
	lg := &serveLog{}
	for i := 0; time.Now().Before(stop); i++ {
		if err := sr.stepSlot(cl, slots[i%len(slots)], lg, measureFrom); err != nil {
			lg.err = err
			break
		}
	}
	return lg
}

// slots is a slot per session in infos, in their order.
func (sr *serveRun) slots(infos []server.Info) []*slot {
	var out []*slot
	for _, info := range infos {
		k := sessionIndex(info.Config.Seed, sr.seed)
		out = append(out, &slot{id: info.ID, k: k, cycle: info.Cycle, instr: sr.progress(k, info.Cycle)})
	}
	return out
}

// sessionIndex recovers a restored session's seed index.
func sessionIndex(sessSeed, seed uint64) int {
	for k := 0; k < serveSeeds; k++ {
		if sessionSeed(seed, k) == sessSeed {
			return k
		}
	}
	return -1
}

// progress is the simulated instructions a session of seed index k has
// executed by cycle, prorated from its control twin.
func (sr *serveRun) progress(k int, cycle uint64) uint64 {
	t := sr.twins[k%serveSeeds]
	if t.cycles == 0 {
		return 0
	}
	return uint64(float64(t.instrs) * float64(min(cycle, t.cycles)) / float64(t.cycles))
}

func (sr *serveRun) stepSlot(cl *client, s *slot, lg *serveLog, measureFrom time.Time) error {
	res, rep, err := cl.step(s.id)
	if err != nil {
		return err
	}
	lg.stepsTotal++
	measured := time.Now().After(measureFrom) && rep.status == http.StatusOK
	instr := sr.progress(s.k, res.Cycle)
	if res.State == server.StateDone {
		instr = sr.twins[s.k%serveSeeds].instrs
	}
	if measured {
		lg.steps = append(lg.steps, stepSample{rep.dur, res.Cycle, float64(instr - s.instr), rep.req})
	}
	s.instr, s.cycle = instr, res.Cycle
	if res.State != server.StateDone {
		if res.State == server.StateFailed {
			return fmt.Errorf("session %s failed: %s", s.id, res.Failure)
		}
		return nil
	}
	want := sr.twins[s.k%serveSeeds].fingerprint
	if res.Result.Fingerprint == want {
		lg.sessionsOK++
	} else {
		lg.problems = append(lg.problems, fmt.Sprintf("session %s (seed index %d): fingerprint %s, control twin %s",
			s.id, s.k%serveSeeds, res.Result.Fingerprint, want))
	}
	drep, err := cl.del(s.id)
	if err != nil {
		return err
	}
	k := sr.nextK
	sr.nextK++
	id, crep, err := cl.create(sr.w.session(sr.seed, k))
	if err != nil {
		return err
	}
	if measured {
		lg.deletes = append(lg.deletes, ms(drep.dur))
		lg.creates = append(lg.creates, ms(crep.dur))
	}
	*s = slot{id: id, k: k}
	return nil
}

// gate turns the client's observations into gated operations.
func (r *run) gate(lg *serveLog) {
	for _, p := range lg.problems {
		r.check(false, "%s", p)
	}
	for i := 0; i < lg.sessionsOK; i++ {
		r.check(true, "")
	}
	// Steps that returned 200 are operations that succeeded.
	r.attempted += lg.stepsTotal
	if lg.err != nil {
		r.check(false, "%v", lg.err)
	}
}

const (
	// stepsPerPass is the step script a timed serve pass runs: five
	// round-robin rounds over the population, under two seconds of work,
	// so a run makes tens of passes.
	stepsPerPass = 160
	// minServePasses is the fewest passes a timed serve run makes.
	minServePasses = 5
)

// serveTimed is the end-to-end serve run. Like a figs pass, a serve pass
// repeats identical work: it boots a server over a fresh copy of the
// populated store (one set-up sample) and runs the same script of
// stepsPerPass one-quantum steps through the handler, round robin over
// the population, finished sessions replaced by the same next seeds.
// Every pass must reproduce the first pass's steps. Each step's time is
// its fastest across passes (see fastQuantile); the run reports their
// median and the simulated instructions per second of their sum.
func serveTimed(r *run, w serveWorkload) error {
	sr, err := populate(r, w)
	if err != nil {
		return err
	}
	stepMS := make([][]float64, stepsPerPass)
	var (
		boots     []float64
		first     []stepSample
		allocated uint64
		passInstr float64
	)
	passes := 0
	start := time.Now()
	for ; time.Since(start) < r.window || passes < minServePasses; passes++ {
		dir := filepath.Join(r.work, "pass")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := copyFiles(sr.bootDir, dir); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		srv, err := server.New(w.serverConfig(dir, 0))
		if err != nil {
			return err
		}
		boots = append(boots, time.Since(t0).Seconds())
		alloc0 := totalAlloc()
		lg := sr.script(srv, passes)
		allocated += totalAlloc() - alloc0
		shutdown(srv)
		r.gate(lg)
		if lg.err != nil {
			return lg.err
		}
		if first == nil {
			first = lg.steps
			for _, s := range first {
				passInstr += s.instr
			}
		}
		same := len(lg.steps) == len(first)
		for i := 0; same && i < len(first); i++ {
			same = lg.steps[i].cycle == first[i].cycle && lg.steps[i].instr == first[i].instr
		}
		r.check(same, "pass %d: steps differ from pass 0", passes)
		for i, s := range lg.steps {
			stepMS[i] = append(stepMS[i], ms(s.dur))
		}
	}
	var fastest []float64
	var sumMS float64
	for _, ts := range stepMS {
		f := quantile(ts, fastQuantile)
		fastest = append(fastest, f)
		sumMS += f
	}
	r.set("setup_s", quantile(boots, fastQuantile), "s")
	r.set("op_ms", median(fastest), "ms")
	r.set("sim_minstr_per_s", passInstr/sumMS/1e3, "Minstr/s")
	r.set("alloc_b_per_kinstr", float64(allocated)/(float64(passes)*passInstr/1e3), "B/kinstr")
	r.extra["passes"] = passes
	r.extra["setup_s_median"] = median(boots)
	r.extra["step_ms_fastest"] = fastest
	return nil
}

// script runs one timed pass's steps on srv, from the populated store.
func (sr *serveRun) script(srv *server.Server, pass int) *serveLog {
	sr.nextK = sr.w.population
	slots := sr.slots(srv.List())
	cl := &client{h: srv.Handler(), prefix: fmt.Sprintf("p%d-", pass)}
	lg := &serveLog{}
	start := time.Now()
	for i := 0; i < stepsPerPass; i++ {
		if err := sr.stepSlot(cl, slots[i%len(slots)], lg, start); err != nil {
			lg.err = err
			break
		}
	}
	return lg
}

// serveTraced is a serve workload's traced run: the workload itself for
// half the window with the server's span ring read back afterwards,
// then the engine matrix (private topology, the sessions' own) and the
// layer probes.
func serveTraced(r *run, w serveWorkload) error {
	sr, err := prepare(r, w, 1<<17)
	if err != nil {
		return err
	}
	lg := sr.load(max(time.Second, r.window/20), r.window/2)
	r.gate(lg)
	err = r.serverLayers(sr.srv, sr.dir, lg, r.window/2)
	shutdown(sr.srv)
	if err != nil {
		return err
	}
	if err := r.engineMatrix("private-dm", r.window/4); err != nil {
		return err
	}
	return r.probes(lg)
}

// chromeTrace is the part of /debug/server-trace the decomposition reads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Req string `json:"req"`
		} `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		Dropped string `json:"dropped_spans"`
	} `json:"otherData"`
}

type spanRec struct {
	name       string
	start, end float64 // µs since server boot
}

// serverLayers reads the server's own span ring and metrics after a
// load and reports the server-layer metrics, plus the per-step layer
// decomposition: HTTP is the step's round trip outside the server's
// first and last span; inside, admission, eviction, grant and engine
// spans are attributed and the rest is unattributed.
func (r *run) serverLayers(srv *server.Server, dir string, lg *serveLog, window time.Duration) error {
	var buf bytes.Buffer
	if err := srv.WriteServerTrace(&buf); err != nil {
		return err
	}
	r.serverTrace = buf.Bytes()
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		return fmt.Errorf("parsing server trace: %w", err)
	}
	byName := map[string][]float64{}
	byReq := map[string][]spanRec{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byName[ev.Name] = append(byName[ev.Name], ev.Dur/1e3)
		if ev.Args.Req != "" {
			byReq[ev.Args.Req] = append(byReq[ev.Args.Req], spanRec{ev.Name, ev.TS, ev.TS + ev.Dur})
		}
	}
	for name, metricName := range map[string]string{
		"admission.wait": "server.admission_wait_ms_p50", "grant.wait": "server.grant_wait_ms_p50",
		"engine.run": "server.engine_run_ms_p50", "evict": "server.evict_ms_p50",
		"snapshot.write": "server.snapshot_write_ms_p50",
	} {
		r.set(metricName, median(byName[name]), "ms")
	}
	var steps, httpUS, unattributed []float64
	for _, s := range lg.steps {
		steps = append(steps, ms(s.dur))
		if outside, gaps, ok := decompose(byReq[s.req], s.dur); ok {
			httpUS = append(httpUS, outside)
			unattributed = append(unattributed, gaps)
		}
	}
	r.set("http.step_overhead_us_p50", median(httpUS), "us")
	p99, q := tailQuantile(steps)
	r.set("server.step_ms_p99", p99, "ms")
	r.set("server.create_ms_p50", median(lg.creates), "ms")
	r.set("server.delete_ms_p50", median(lg.deletes), "ms")
	r.serveUnattributed = median(unattributed)
	r.extra["server_step_tail_quantile"] = q
	r.extra["server_steps_decomposed"] = len(unattributed)
	r.extra["server_dropped_spans"] = tr.OtherData.Dropped
	r.set("server.steps_per_s", float64(len(steps))/window.Seconds(), "1/s")

	var mbuf bytes.Buffer
	if err := srv.WriteMetrics(&mbuf); err != nil {
		return err
	}
	prom := parseProm(mbuf.Bytes())
	r.set("server.evictions", prom["atsimd_sessions_evicted_total"], "count")
	r.set("server.resumes", prom["atsimd_sessions_resumed_total"], "count")
	r.set("server.rejected_overload", prom["atsimd_rejected_overload_total"], "count")
	kb, n := dirKB(dir)
	r.set("snapshot.disk_kb_per_session", kb/float64(max(n, 1)), "KB")
	return nil
}

// decompose splits one step's round trip by the server's spans for its
// request: the µs outside the server's first-to-last span interval are
// the HTTP layer's (handler, JSON, routing); gaps is the share of the
// round trip inside that interval that no span covers.
func decompose(spans []spanRec, total time.Duration) (outside, gaps float64, ok bool) {
	if len(spans) == 0 || total <= 0 {
		return 0, 0, false
	}
	lo, hi := spans[0].start, spans[0].end
	for _, s := range spans {
		lo, hi = min(lo, s.start), max(hi, s.end)
	}
	covered := 0.0
	// The server's spans nest (engine.run inside grant.wait) or follow
	// each other; a sweep over sorted intervals measures their union.
	sorted := append([]spanRec(nil), spans...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].start < sorted[j-1].start; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	curLo, curHi := sorted[0].start, sorted[0].end
	for _, s := range sorted[1:] {
		if s.start > curHi {
			covered += curHi - curLo
			curLo, curHi = s.start, s.end
		} else {
			curHi = max(curHi, s.end)
		}
	}
	covered += curHi - curLo
	totalUS := float64(total) / 1e3
	return max(0, totalUS-(hi-lo)), max(0, (hi-lo)-covered) / totalUS, true
}

// parseProm sums each metric's samples across labels (the server's
// counters are sharded per CPU) from Prometheus text format; histogram
// buckets are skipped.
func parseProm(data []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "le=") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// dirKB sums the sizes of a data directory's files in KiB and counts
// its session manifests.
func dirKB(dir string) (float64, int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	var total int64
	var sessions int
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		total += info.Size()
		if n := e.Name(); strings.HasSuffix(n, ".json") && strings.Count(n, ".") == 1 {
			sessions++
		}
	}
	return float64(total) / 1024, sessions
}
