// Command atsimload drives an atsimd server for load testing and for
// the real-process smoke in scripts/soak.sh. One invocation runs one
// mode:
//
//	load     create and complete -n sessions as fast as -c workers
//	         allow; report throughput and latency percentiles (per
//	         session, and per step when -quanta > 0 paces the
//	         completion in bounded steps) and enforce -slo-p99 /
//	         -slo-rate; -summary-json writes the machine-readable
//	         result
//	wait     poll /readyz until the server answers (startup scripting)
//	metrics  fetch /metrics and assert every -expect substring appears
//	         (scrape gate for soak.sh, no curl/grep dependency)
//
// On a 410 Gone with a Location header (a session migrated away) the
// client re-issues the request once at the new home — exactly once, so
// a redirect loop cannot form.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsatomic"
	"repro/internal/parallel"
	"repro/internal/retry"
	"repro/internal/server"
)

func main() {
	var (
		serverURL = flag.String("server", "http://127.0.0.1:8080", "atsimd base URL")
		n         = flag.Int("n", 100, "session count")
		conc      = flag.Int("c", 16, "client concurrency")
		quanta    = flag.Uint64("quanta", 0, "pace each session in steps of this many boundaries and report per-step latency (0 = one step to completion)")
		app       = flag.String("app", "tasks", "workload application")
		policy    = flag.String("policy", "LFF", "scheduling policy")
		cpus      = flag.Int("cpus", 2, "simulated CPUs")
		scale     = flag.Float64("scale", 0.05, "workload scale")
		quantum   = flag.Uint64("quantum", 100000, "session quantum in cycles")
		seedBase  = flag.Uint64("seed-base", 1000, "session i uses seed seed-base+i")
		tenant    = flag.String("tenant", "", "X-Tenant header value")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-operation budget including retries")
		sloP99    = flag.Duration("slo-p99", 0, "fail if p99 session latency exceeds this (0 = don't enforce)")
		sloRate   = flag.Float64("slo-rate", 1.0, "fail if the success fraction drops below this")
		summary   = flag.String("summary-json", "", "write the machine-readable run summary to this path")
		expect    = flag.String("expect", "", "metrics mode: comma-separated substrings that must appear in /metrics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "atsimload: exactly one mode required: load | wait | metrics")
		os.Exit(2)
	}
	cl := &client{base: *serverURL, hc: &http.Client{}, tenant: *tenant, opTimeout: *timeout}
	cfg := server.SessionConfig{
		App: *app, Policy: *policy, CPUs: *cpus, Scale: *scale, Quantum: *quantum,
	}
	var err error
	switch mode := flag.Arg(0); mode {
	case "wait":
		err = runWait(cl)
	case "metrics":
		err = runMetrics(cl, *expect)
	case "load":
		err = runLoad(cl, *n, *conc, cfg, *seedBase, *quanta, *sloP99, *sloRate, *summary)
	default:
		fmt.Fprintf(os.Stderr, "atsimload: unknown mode %q\n", mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "atsimload: %v\n", err)
		os.Exit(1)
	}
}

// client is a thin atsimd client that honors the server's backpressure
// protocol: 429/503 responses are retried after their Retry-After,
// transport errors with the deterministic backoff of internal/retry,
// all within one bounded per-operation budget. Every retry is counted
// by cause, so load summaries report how much backpressure the run hit.
type client struct {
	base      string
	hc        *http.Client
	tenant    string
	opTimeout time.Duration

	retries429   atomicCounter
	retries503   atomicCounter
	retriesOther atomicCounter
}

// httpError is a non-2xx response.
type httpError struct {
	status     int
	body       string
	retryAfter time.Duration
	location   string // 410 Gone: the session's new home
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// errNoResponse marks a request that failed without any HTTP response
// before its operation's budget ran out (the server is down or
// unreachable). An operation whose retries run out on it wraps it, so
// load can stop starting sessions against a dead server.
var errNoResponse = errors.New("no response")

// opRetry is the backoff of one operation's retries, within its
// -timeout budget.
var opRetry = retry.Policy{Attempts: 8, Base: 50 * time.Millisecond, Cap: 2 * time.Second}

func (c *client) do(method, path string, in, out any) error {
	url, follow := c.base+path, true
	ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
	defer cancel()
	var reqBody []byte
	if in != nil {
		var err error
		if reqBody, err = json.Marshal(in); err != nil {
			return err
		}
	}
	delays := opRetry.Schedule()
	attempt := 0
	for {
		err := c.once(ctx, method, url, reqBody, out)
		if err == nil {
			return nil
		}
		var he *httpError
		retryAfter := time.Duration(-1)
		if ok := asHTTPError(err, &he); ok {
			if follow && he.status == http.StatusGone && he.location != "" {
				// The session migrated away; chase it to its new home —
				// once, so two stale servers can't bounce us forever.
				url = he.location
				follow = false
				continue
			}
			if he.status != http.StatusTooManyRequests && he.status != http.StatusServiceUnavailable {
				return err // terminal: 4xx/5xx that backoff won't fix
			}
			retryAfter = he.retryAfter
		}
		if attempt >= len(delays) {
			return fmt.Errorf("%s %s: retries exhausted: %w", method, url, err)
		}
		switch {
		case he != nil && he.status == http.StatusTooManyRequests:
			c.retries429.inc()
		case he != nil && he.status == http.StatusServiceUnavailable:
			c.retries503.inc()
		default:
			c.retriesOther.inc()
		}
		d := delays[attempt]
		if retryAfter > 0 {
			d = retryAfter
		}
		attempt++
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%s %s: %w (last error: %w)", method, url, ctx.Err(), err)
		case <-t.C:
		}
	}
}

func asHTTPError(err error, out **httpError) bool {
	he, ok := err.(*httpError)
	if ok {
		*out = he
	}
	return ok
}

func (c *client) once(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			// The request failed by itself (refused, reset), not
			// because the operation's budget ran out while a slow
			// server was still working on it.
			err = fmt.Errorf("%w: %w", errNoResponse, err)
		}
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		he := &httpError{status: resp.StatusCode, body: firstLine(string(data))}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil {
				he.retryAfter = time.Duration(secs) * time.Second
			}
		}
		he.location = resp.Header.Get("Location")
		return he
	}
	if out != nil && len(data) > 0 {
		return json.Unmarshal(data, out)
	}
	return nil
}

// raw fetches a path's body verbatim (for text endpoints like
// /metrics).
func (c *client) raw(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{status: resp.StatusCode, body: firstLine(string(data))}
	}
	return data, nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

type stepReq struct {
	Quanta uint64 `json:"quanta"`
}

// finishSession runs one session to completion.
func finishSession(cl *client, id string) error {
	var res server.StepResult
	if err := cl.do("POST", "/v1/sessions/"+id+"/step", stepReq{Quanta: 0}, &res); err != nil {
		return fmt.Errorf("finishing %s: %w", id, err)
	}
	if res.State != server.StateDone || res.Result == nil {
		return fmt.Errorf("session %s finished in state %q (failure: %s)", id, res.State, res.Failure)
	}
	return nil
}

// runWait polls the server's readiness endpoint until it answers 200
// or the -timeout budget runs out — the scripting primitive for
// "server is up" without a curl dependency.
func runWait(cl *client) error {
	deadline := time.Now().Add(cl.opTimeout)
	for {
		// One quick un-retried probe per tick; the loop is the retry.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := cl.once(ctx, "GET", cl.base+"/readyz", nil, nil)
		cancel()
		if err == nil {
			fmt.Println("atsimload: server ready")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %w", cl.opTimeout, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// percentiles summarizes a latency population (sorted in place).
type percentiles struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P95ms float64 `json:"p95_ms"`
	P99ms float64 `json:"p99_ms"`
}

func summarize(lat []time.Duration) percentiles {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		return lat[int(p*float64(len(lat)-1))]
	}
	return percentiles{
		Count: len(lat),
		P50ms: float64(pct(0.50)) / float64(time.Millisecond),
		P95ms: float64(pct(0.95)) / float64(time.Millisecond),
		P99ms: float64(pct(0.99)) / float64(time.Millisecond),
	}
}

// loadSummary is the -summary-json format: everything the human line
// prints, machine-readable, plus the client's retry accounting.
type loadSummary struct {
	Sessions       int         `json:"sessions"`
	OK             int         `json:"ok"`
	Failed         int         `json:"failed"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	PerSecond      float64     `json:"throughput_per_sec"`
	StepQuanta     uint64      `json:"step_quanta,omitempty"`
	SessionLatency percentiles `json:"session_latency"`
	StepLatency    percentiles `json:"step_latency"`
	Retries429     int         `json:"retries_429"`
	Retries503     int         `json:"retries_503"`
	RetriesOther   int         `json:"retries_other"`
}

func runLoad(cl *client, n, conc int, cfg server.SessionConfig, seedBase, stepQuanta uint64, sloP99 time.Duration, sloRate float64, summaryPath string) error {
	latencies := make([]time.Duration, n)
	var (
		stepMu  sync.Mutex
		stepLat []time.Duration
		// down is set by the first operation that ran out of retries
		// without any HTTP response: the server is gone, so the
		// sessions not yet started fail at once instead of each
		// burning a whole retry schedule.
		down atomic.Bool
	)
	noteDown := func(err error) {
		if errors.Is(err, errNoResponse) {
			down.Store(true)
		}
	}
	// completeOne runs one session to done: a single unlimited step, or
	// -quanta-sized steps with each request's latency recorded.
	completeOne := func(id string) error {
		if stepQuanta == 0 {
			return finishSession(cl, id)
		}
		for {
			var res server.StepResult
			t0 := time.Now()
			if err := cl.do("POST", "/v1/sessions/"+id+"/step", stepReq{Quanta: stepQuanta}, &res); err != nil {
				return fmt.Errorf("stepping %s: %w", id, err)
			}
			stepMu.Lock()
			stepLat = append(stepLat, time.Since(t0))
			stepMu.Unlock()
			switch res.State {
			case server.StateDone:
				return nil
			case server.StateFailed:
				return fmt.Errorf("session %s failed: %s", id, res.Failure)
			}
		}
	}
	start := time.Now()
	parallel.ForEach(conc, n, func(i int) error {
		if down.Load() {
			return nil // counted failed: latencies[i] stays 0
		}
		t0 := time.Now()
		c := cfg
		c.Seed = seedBase + uint64(i)
		var info server.Info
		if err := cl.do("POST", "/v1/sessions", c, &info); err != nil {
			noteDown(err)
			return nil
		}
		if err := completeOne(info.ID); err != nil {
			noteDown(err)
			return nil
		}
		noteDown(cl.do("DELETE", "/v1/sessions/"+info.ID, nil, nil))
		latencies[i] = time.Since(t0)
		return nil
	})
	elapsed := time.Since(start)
	var okLat []time.Duration
	for _, d := range latencies {
		if d > 0 {
			okLat = append(okLat, d)
		}
	}
	sum := loadSummary{
		Sessions:       n,
		OK:             len(okLat),
		Failed:         n - len(okLat),
		ElapsedSeconds: elapsed.Seconds(),
		PerSecond:      float64(len(okLat)) / elapsed.Seconds(),
		StepQuanta:     stepQuanta,
		SessionLatency: summarize(okLat),
		StepLatency:    summarize(stepLat),
		Retries429:     cl.retries429.get(),
		Retries503:     cl.retries503.get(),
		RetriesOther:   cl.retriesOther.get(),
	}
	fmt.Printf("atsimload: load: %d/%d sessions ok in %v (%.1f/s), session latency p50=%.0fms p95=%.0fms p99=%.0fms\n",
		sum.OK, n, elapsed.Round(time.Millisecond), sum.PerSecond,
		sum.SessionLatency.P50ms, sum.SessionLatency.P95ms, sum.SessionLatency.P99ms)
	if stepQuanta > 0 {
		fmt.Printf("atsimload: load: %d steps of %d quanta, step latency p50=%.0fms p95=%.0fms p99=%.0fms\n",
			sum.StepLatency.Count, stepQuanta,
			sum.StepLatency.P50ms, sum.StepLatency.P95ms, sum.StepLatency.P99ms)
	}
	if r := sum.Retries429 + sum.Retries503 + sum.RetriesOther; r > 0 {
		fmt.Printf("atsimload: load: %d retries (429: %d, 503: %d, other: %d)\n",
			r, sum.Retries429, sum.Retries503, sum.RetriesOther)
	}
	if summaryPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := fsatomic.WriteFile(summaryPath, func(w io.Writer) error {
			_, err := w.Write(append(data, '\n'))
			return err
		}); err != nil {
			return err
		}
		fmt.Printf("atsimload: load summary -> %s\n", summaryPath)
	}
	rate := float64(sum.OK) / float64(n)
	if rate < sloRate {
		return fmt.Errorf("SLO violation: success rate %.3f < %.3f", rate, sloRate)
	}
	if sloP99 > 0 && sum.SessionLatency.P99ms > float64(sloP99)/float64(time.Millisecond) {
		return fmt.Errorf("SLO violation: p99 %.0fms > %v", sum.SessionLatency.P99ms, sloP99)
	}
	return nil
}

// runMetrics is the scrape gate: fetch /metrics and require every
// -expect substring, so scripts can assert instrumentation without a
// curl|grep dependency.
func runMetrics(cl *client, expect string) error {
	body, err := cl.raw("/metrics")
	if err != nil {
		return fmt.Errorf("fetching /metrics: %w", err)
	}
	var missing []string
	var wanted int
	for _, want := range strings.Split(expect, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		wanted++
		if !bytes.Contains(body, []byte(want)) {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("/metrics lacks %d of %d expected series: %s",
			len(missing), wanted, strings.Join(missing, ", "))
	}
	fmt.Printf("atsimload: metrics: all %d expected series present\n", wanted)
	return nil
}

type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (c *atomicCounter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *atomicCounter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
