package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/platform/sim"
	"repro/internal/rt"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// obsSessionConfig is testSessionConfig with tracing on and buffers
// big enough that nothing falls off — the lossless configuration the
// byte-identity comparisons need.
func obsSessionConfig(seed uint64) SessionConfig {
	cfg := testSessionConfig(seed)
	cfg.Obs = "trace"
	cfg.ObsRing = 1 << 17
	return cfg
}

// fetchObs GETs the session's /obs endpoint and returns the raw body.
func fetchObs(t *testing.T, base, id, query string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/obs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /obs%s = %d: %s", query, resp.StatusCode, body)
	}
	return body
}

// TestObsStreamMatchesEngineExport is the tentpole determinism gate:
// the server's engine-event stream for a completed session is
// byte-identical to the post-hoc export of a standalone run of the
// same configuration, and independent of the server's worker count.
func TestObsStreamMatchesEngineExport(t *testing.T) {
	cfg := obsSessionConfig(301)

	// Reference: the same engine run outside the server.
	app, err := workloads.SchedAppByName(cfg.App)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cachesim.ParseTopology(cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cfg.machineConfig(topo)
	obsv := obs.New(mcfg.CPUs, obs.Options{
		Level: obs.Trace, RingSize: cfg.ObsRing, StreamSize: cfg.ObsRing,
	})
	e, err := rt.New(sim.New(machine.New(mcfg)), rt.Options{
		Policy: cfg.Policy,
		Seed:   cfg.Seed,
		Obs:    obsv,
		Checkpoint: rt.CheckpointConfig{
			Every:        cfg.Quantum,
			Config:       cfg.kv(),
			OnCheckpoint: func(*snapshot.State) error { return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Spawn(e, cfg.Scale)
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obs.WriteStreamNDJSON(&want, obsv); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		_, ts := newTestAPI(t, func(c *Config) {
			c.Workers = workers
			c.ObsLogCap = 1 << 17
		})
		var info Info
		doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &info)
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)
		got := fetchObs(t, ts.URL, info.ID, "")
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("workers=%d: /obs differs from standalone export (%d vs %d bytes)",
				workers, len(got), want.Len())
		}
	}
}

// TestObsFollowEqualsBatch: a follower attached while the session is
// still being stepped accumulates exactly the bytes a post-completion
// batch read returns, and terminates on its own when the session
// finishes.
func TestObsFollowEqualsBatch(t *testing.T) {
	_, ts := newTestAPI(t, func(c *Config) { c.ObsLogCap = 1 << 17 })
	cfg := obsSessionConfig(302)
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &info)

	// One boundary first, so the follower starts mid-run with history
	// already published.
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 1}, nil)

	type followResult struct {
		body []byte
		err  error
	}
	followed := make(chan followResult, 1)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/obs?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		followed <- followResult{body, err}
	}()

	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)

	fr := <-followed
	if fr.err != nil {
		t.Fatalf("follow read: %v", fr.err)
	}
	batch := fetchObs(t, ts.URL, info.ID, "")
	if !bytes.Equal(fr.body, batch) {
		t.Fatalf("follow stream != batch read (%d vs %d bytes)", len(fr.body), len(batch))
	}
	if len(batch) == 0 {
		t.Fatal("no engine events streamed at all")
	}

	// Cursor resume: re-reading from the last seq yields nothing new.
	var lastSeq uint64
	sc := bufio.NewScanner(bytes.NewReader(batch))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if line.Seq > 0 {
			lastSeq = line.Seq
		}
	}
	if rest := fetchObs(t, ts.URL, info.ID, "?after="+strconv.FormatUint(lastSeq, 10)); len(rest) != 0 {
		t.Fatalf("after=%d returned %d bytes, want none", lastSeq, len(rest))
	}
}

// TestObsStreamGapAccounting: whichever bound sheds events — a tiny
// published-log cap (one leading gap) or a tiny engine stream ring
// overwriting events between publishes (interior gaps) — every loss
// surfaces as an explicit gap line, and the gaps' counts plus the
// retained events equal the run's total emission.
func TestObsStreamGapAccounting(t *testing.T) {
	cases := []struct {
		name         string
		logCap       int
		obsRing      int
		interior     bool   // want gaps after the first line too
		wantRetained uint64 // 0 = don't pin
	}{
		{"log cap", 64, 1 << 17, false, 64},
		{"stream ring", 1 << 17, 16, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestAPI(t, func(c *Config) { c.ObsLogCap = tc.logCap })
			cfg := obsSessionConfig(303)
			cfg.ObsRing = tc.obsRing
			var info Info
			doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &info)
			doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)

			body := fetchObs(t, ts.URL, info.ID, "")
			sc := bufio.NewScanner(bytes.NewReader(body))
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			var lines, gaps, midGaps, events, dropped, lastSeq uint64
			for sc.Scan() {
				lines++
				var line struct {
					Seq     uint64 `json:"seq"`
					Kind    string `json:"kind"`
					Dropped uint64 `json:"dropped"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("line %d: %v", lines, err)
				}
				if line.Kind != "gap" {
					events++
					lastSeq = line.Seq
					continue
				}
				if line.Seq != 0 {
					t.Fatalf("gap record carries seq %d", line.Seq)
				}
				if line.Dropped == 0 {
					t.Fatalf("line %d: gap with nothing dropped", lines)
				}
				gaps++
				if lines > 1 {
					midGaps++
				}
				dropped += line.Dropped
			}
			if gaps == 0 {
				t.Fatal("no gap line: the bound must overflow")
			}
			if tc.interior && midGaps == 0 {
				t.Fatalf("%d gaps, none mid-stream; want interior gaps", gaps)
			}
			if !tc.interior && midGaps != 0 {
				t.Fatalf("%d mid-stream gaps, want only a leading one", midGaps)
			}
			if dropped+events != lastSeq {
				t.Fatalf("accounting broken: %d dropped + %d retained != last seq %d", dropped, events, lastSeq)
			}
			if tc.wantRetained != 0 && events != tc.wantRetained {
				t.Fatalf("retained %d events, want exactly the log cap %d", events, tc.wantRetained)
			}
		})
	}
}

// TestObsOffSession: an untraced session exposes an empty stream that
// terminates (rather than hangs) once the session is done.
func TestObsOffSession(t *testing.T) {
	_, ts := newTestAPI(t, nil)
	cfg := testSessionConfig(304)
	cfg.Obs = "off"
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &info)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)
	if body := fetchObs(t, ts.URL, info.ID, "?follow=1"); len(body) != 0 {
		t.Fatalf("obs-off session streamed %d bytes", len(body))
	}
	// And the obs level stayed out of the session's snapshot config:
	// the config record must look exactly like a pre-observability one.
	for _, kv := range cfg.kv() {
		if kv.K == "obs" || kv.K == "obsring" {
			t.Fatalf("obs-off config leaked %q into the snapshot config record", kv.K)
		}
	}
}

// counterTotal sums a sharded counter across its per-cpu series in the
// Prometheus rendering.
func counterTotal(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

// TestRequestTracing pins X-Request-ID propagation, the access log,
// the RED histograms and the server trace export.
func TestRequestTracing(t *testing.T) {
	var access bytes.Buffer
	s, ts := newTestAPI(t, func(c *Config) { c.AccessLog = &access })

	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", obsSessionConfig(306), &info)

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/"+info.ID+"/step",
		strings.NewReader(`{"quanta": 0}`))
	req.Header.Set("X-Request-ID", "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Fatalf("supplied request id echoed as %q", got)
	}

	// A request without an ID gets a generated one.
	resp2, err := http.Get(ts.URL + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on the response")
	}

	// The access log carries structured lines joined by request id.
	var sawStep bool
	sc := bufio.NewScanner(bytes.NewReader(access.Bytes()))
	for sc.Scan() {
		var line struct {
			Req    string `json:"req"`
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log line is not JSON: %q", sc.Text())
		}
		if line.Req == "req-abc-123" && line.Method == "POST" && line.Status == http.StatusOK {
			sawStep = true
		}
	}
	if !sawStep {
		t.Fatalf("access log never recorded the step request:\n%s", access.String())
	}

	// The server trace is valid Chrome JSON whose spans join the
	// request id and carry engine-side virtual-time anchors.
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Req        string `json:"req"`
				Cycle      uint64 `json:"cycle"`
				Boundaries uint64 `json:"boundaries"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	tresp, err := http.Get(ts.URL + "/debug/server-trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatalf("server trace is not valid JSON: %v", err)
	}
	spans := map[string]bool{}
	var joined, anchored bool
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans[ev.Name] = true
		if ev.Args.Req == "req-abc-123" {
			joined = true
		}
		if ev.Name == "engine.run" && ev.Args.Cycle > 0 && ev.Args.Boundaries > 0 {
			anchored = true
		}
	}
	for _, want := range []string{"admission.wait", "grant.wait", "engine.run"} {
		if !spans[want] {
			t.Errorf("server trace lacks %s spans (have %v)", want, spans)
		}
	}
	if !joined {
		t.Error("no span joined the caller's X-Request-ID")
	}
	if !anchored {
		t.Error("no engine.run span carries a virtual-time anchor (cycle/boundaries)")
	}

	// The RED histograms register on /metrics.
	var mbuf bytes.Buffer
	if err := s.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"atsimd_admission_wait_seconds", "atsimd_eviction_seconds",
		"atsimd_snapshot_write_seconds",
	} {
		if !strings.Contains(mbuf.String(), metric) {
			t.Errorf("/metrics lacks %s", metric)
		}
	}
}

// TestServerTraceSpanOverflow: once the span log overflows its
// TraceSpanCap, /debug/server-trace keeps exactly the newest spans and
// its dropped_spans plus the retained X events equals every span ever
// added.
func TestServerTraceSpanOverflow(t *testing.T) {
	const spanCap = 8
	s, ts := newTestAPI(t, func(c *Config) { c.TraceSpanCap = spanCap })
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", testSessionConfig(307), &info)
	for i := 0; i < 6; i++ {
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 1}, nil)
	}

	fetch := func() (reqs []string, dropped uint64) {
		t.Helper()
		var trace struct {
			TraceEvents []struct {
				Ph   string `json:"ph"`
				Args struct {
					Req string `json:"req"`
				} `json:"args"`
			} `json:"traceEvents"`
			OtherData struct {
				DroppedSpans string `json:"dropped_spans"`
			} `json:"otherData"`
		}
		resp, err := http.Get(ts.URL + "/debug/server-trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
			t.Fatalf("server trace is not valid JSON: %v", err)
		}
		for _, ev := range trace.TraceEvents {
			if ev.Ph == "X" {
				reqs = append(reqs, ev.Args.Req)
			}
		}
		dropped, err = strconv.ParseUint(trace.OtherData.DroppedSpans, 10, 64)
		if err != nil {
			t.Fatalf("dropped_spans %q: %v", trace.OtherData.DroppedSpans, err)
		}
		return reqs, dropped
	}

	// Real traffic: six steps add more spans than the cap holds.
	added := s.spans.lastSeq()
	if added <= spanCap {
		t.Fatalf("only %d spans added, test needs more than the cap %d", added, spanCap)
	}
	reqs, dropped := fetch()
	if len(reqs) != spanCap || dropped+uint64(len(reqs)) != added {
		t.Fatalf("%d retained + %d dropped, want %d retained of %d added", len(reqs), dropped, spanCap, added)
	}

	// Marked spans: the retained ones are exactly the newest, in order.
	const marks = 3 * spanCap
	for i := 0; i < marks; i++ {
		s.spans.push(span{name: "mark", req: "mark-" + strconv.Itoa(i), start: time.Now()})
	}
	reqs, dropped = fetch()
	for i, req := range reqs {
		if want := "mark-" + strconv.Itoa(marks-spanCap+i); req != want {
			t.Fatalf("retained span %d is %q, want %q (the newest %d)", i, req, want, spanCap)
		}
	}
	if len(reqs) != spanCap || dropped+spanCap != added+marks {
		t.Fatalf("%d retained + %d dropped, want %d of %d added", len(reqs), dropped, spanCap, added+marks)
	}
}

// TestObsStreamSurvivesEviction: evicting and resuming a session must
// not disturb the stream's sequence numbering — the deterministic
// re-execution republishes exactly where the cursor left off, so a
// follower sees no discontinuity and the final stream equals the
// uninterrupted twin's.
func TestObsStreamSurvivesEviction(t *testing.T) {
	_, ts := newTestAPI(t, func(c *Config) { c.ObsLogCap = 1 << 17 })
	cfg := obsSessionConfig(307)

	var control Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &control)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+control.ID+"/step", map[string]uint64{"quanta": 0}, nil)
	want := fetchObs(t, ts.URL, control.ID, "")

	var chopped Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &chopped)
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("session did not complete in 100 single-boundary steps")
		}
		var res StepResult
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+chopped.ID+"/step", map[string]uint64{"quanta": 1}, &res)
		if res.State == StateDone {
			break
		}
		doJSON(t, "POST", ts.URL+"/v1/sessions/"+chopped.ID+"/evict", nil, nil)
	}
	got := fetchObs(t, ts.URL, chopped.ID, "")
	if !bytes.Equal(got, want) {
		t.Fatalf("evict/resume perturbed the stream (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFailureReproducesFromConfig is what replaces a flight recorder:
// a session created from a failed session's own config (as GET
// returns it) fails at the same boundary and cycle with the same
// failure line, and its /obs body — gap lines included — is
// byte-identical, however the two were stepped. The cases cover a
// lossless log, a log cap that sheds the head, and a stream ring that
// overwrites between publishes.
func TestFailureReproducesFromConfig(t *testing.T) {
	cases := []struct {
		name    string
		logCap  int
		obsRing int
	}{
		{"lossless", 1 << 17, 1 << 17},
		{"log cap", 64, 1 << 17},
		{"stream ring", 1 << 17, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestAPI(t, func(c *Config) { c.ObsLogCap = tc.logCap })
			cfg := obsSessionConfig(305)
			cfg.ObsRing = tc.obsRing
			cfg.PanicAtBoundary = 2

			var a, b Info
			doJSON(t, "POST", ts.URL+"/v1/sessions", cfg, &a)
			doJSON(t, "POST", ts.URL+"/v1/sessions/"+a.ID+"/step", map[string]uint64{"quanta": 0}, nil)
			doJSON(t, "GET", ts.URL+"/v1/sessions/"+a.ID, nil, &a)
			if a.State != StateFailed {
				t.Fatalf("first session ended %s, want failed", a.State)
			}

			doJSON(t, "POST", ts.URL+"/v1/sessions", a.Config, &b)
			for i := 0; b.State != StateFailed; i++ {
				if i > 100 {
					t.Fatal("the reproduction did not fail in 100 single-boundary steps")
				}
				doJSON(t, "POST", ts.URL+"/v1/sessions/"+b.ID+"/step", map[string]uint64{"quanta": 1}, nil)
				doJSON(t, "GET", ts.URL+"/v1/sessions/"+b.ID, nil, &b)
			}
			if a.Boundaries != b.Boundaries || a.Cycle != b.Cycle {
				t.Fatalf("failed at boundary %d cycle %d, reproduction at boundary %d cycle %d",
					a.Boundaries, a.Cycle, b.Boundaries, b.Cycle)
			}
			if firstLine(a.Failure) != firstLine(b.Failure) {
				t.Fatalf("failure %q, reproduction %q", firstLine(a.Failure), firstLine(b.Failure))
			}
			want := fetchObs(t, ts.URL, a.ID, "")
			if len(want) == 0 {
				t.Fatal("the failed session published no engine events")
			}
			if got := fetchObs(t, ts.URL, b.ID, ""); !bytes.Equal(got, want) {
				t.Fatalf("reproduction /obs differs (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
