package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAPI(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, mut)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// TestHTTPLifecycle drives the full session lifecycle through the real
// HTTP surface: create, list, step to completion, inspect, delete.
func TestHTTPLifecycle(t *testing.T) {
	_, ts := newTestAPI(t, nil)

	var info Info
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions", testSessionConfig(11), &info)
	if resp.StatusCode != http.StatusCreated || info.ID == "" {
		t.Fatalf("create = %d %+v, want 201 with an id", resp.StatusCode, info)
	}

	var list []Info
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); resp.StatusCode != 200 || len(list) != 1 {
		t.Fatalf("list = %d with %d sessions, want 200 with 1", resp.StatusCode, len(list))
	}

	var res StepResult
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, &res)
	if resp.StatusCode != 200 || res.State != StateDone || res.Result == nil {
		t.Fatalf("step = %d %+v, want 200 done", resp.StatusCode, res)
	}

	var got Info
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/"+info.ID, nil, &got); resp.StatusCode != 200 || got.State != StateDone {
		t.Fatalf("get = %d %+v, want 200 done", resp.StatusCode, got)
	}

	if resp := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+info.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/"+info.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPStatusMapping pins the error protocol clients program
// against: 400 invalid config, 404 unknown id, 409 failed session,
// 429 + Retry-After on quota.
func TestHTTPStatusMapping(t *testing.T) {
	_, ts := newTestAPI(t, func(c *Config) { c.TenantQuota = 1 })

	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions",
		map[string]any{"app": "no-such-app"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid config = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/s-999999/step", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("step unknown = %d, want 404", resp.StatusCode)
	}

	poison := testSessionConfig(21)
	poison.PanicAtBoundary = 1
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", poison, &info)
	var res StepResult
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, &res)
	if resp.StatusCode != http.StatusConflict || res.State != StateFailed {
		t.Errorf("step poisoned = %d state %q, want 409 failed", resp.StatusCode, res.State)
	}

	// Tenant quota: the second create for the same tenant must carry
	// the backpressure protocol headers.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader("{}"))
	req.Header.Set("X-Tenant", "alice")
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("first alice create = %v %v", resp, err)
	}
	req, _ = http.NewRequest("POST", ts.URL+"/v1/sessions", strings.NewReader("{}"))
	req.Header.Set("X-Tenant", "alice")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("quota'd create = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
}

// TestHTTPHealthAndMetrics pins the operational endpoints.
func TestHTTPHealthAndMetrics(t *testing.T) {
	s, ts := newTestAPI(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		if resp := doJSON(t, "GET", ts.URL+path, nil, nil); resp.StatusCode != 200 {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", testSessionConfig(31), &info)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{
		"atsimd_sessions_created_total", "atsimd_sessions_done_total",
		"atsimd_steps_total", "atsimd_boundaries_total", "atsimd_step_seconds",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics output missing %s", metric)
		}
	}

	// readyz flips to 503 once draining.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp := doJSON(t, "GET", ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPEvents pins the NDJSON event stream shape.
func TestHTTPEvents(t *testing.T) {
	_, ts := newTestAPI(t, nil)
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", testSessionConfig(41), &info)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var kinds []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) == 0 || kinds[0] != "created" || kinds[len(kinds)-1] != "done" {
		t.Errorf("event kinds = %v, want created ... done", kinds)
	}
}

// TestEventsFollowEndsAtDelete: a /events follower sees the session's
// final "deleted" event and then the stream ends, rather than stopping
// silently at "done" when the session leaves the table.
func TestEventsFollowEndsAtDelete(t *testing.T) {
	_, ts := newTestAPI(t, nil)
	var info Info
	doJSON(t, "POST", ts.URL+"/v1/sessions", testSessionConfig(42), &info)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/step", map[string]uint64{"quanta": 0}, nil)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	kinds := make(chan string, 1024)
	go func() {
		defer close(kinds)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				kinds <- "bad line: " + sc.Text()
				return
			}
			kinds <- ev.Kind
		}
	}()
	// Wait until the follower has caught up with the completed run.
	timeout := time.After(30 * time.Second)
	for caughtUp := false; !caughtUp; {
		select {
		case k, ok := <-kinds:
			if !ok {
				t.Fatal("stream ended before the session was deleted")
			}
			caughtUp = k == "done"
		case <-timeout:
			t.Fatal("follower never saw done")
		}
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+info.ID, nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	var last string
	for {
		select {
		case k, ok := <-kinds:
			if !ok {
				if last != "deleted" {
					t.Fatalf("stream ended at %q, want deleted", last)
				}
				return
			}
			last = k
		case <-timeout:
			t.Fatalf("stream did not end after delete (last line %q)", last)
		}
	}
}
