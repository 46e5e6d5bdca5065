package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestFollowOnceOn410 pins the client's migration-redirect behavior: a
// 410 Gone with a Location is followed exactly once, and a redirect
// chain (two stale servers pointing at each other) terminates as an
// error instead of looping.
func TestFollowOnceOn410(t *testing.T) {
	var homeHits atomic.Int32
	home := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		homeHits.Add(1)
		fmt.Fprintln(w, `{"state":"done"}`)
	}))
	defer home.Close()
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", home.URL+r.URL.Path)
		w.WriteHeader(http.StatusGone)
		fmt.Fprintln(w, `{"error":"session migrated"}`)
	}))
	defer stale.Close()

	cl := &client{base: stale.URL, hc: &http.Client{}, opTimeout: 5 * time.Second}
	var out struct {
		State string `json:"state"`
	}
	if err := cl.do("POST", "/v1/sessions/s-000001/step", stepReq{Quanta: 1}, &out); err != nil {
		t.Fatalf("do with 410 redirect: %v", err)
	}
	if out.State != "done" || homeHits.Load() != 1 {
		t.Fatalf("redirect result %+v after %d home hits; want done after exactly 1", out, homeHits.Load())
	}

	// Two stale servers: the second 410 must surface as the error, not
	// recurse.
	var loopHits atomic.Int32
	loop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		loopHits.Add(1)
		w.Header().Set("Location", stale.URL+r.URL.Path)
		w.WriteHeader(http.StatusGone)
		fmt.Fprintln(w, `{"error":"session migrated"}`)
	}))
	defer loop.Close()
	stale2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", loop.URL+r.URL.Path)
		w.WriteHeader(http.StatusGone)
		fmt.Fprintln(w, `{"error":"session migrated"}`)
	}))
	defer stale2.Close()
	cl2 := &client{base: stale2.URL, hc: &http.Client{}, opTimeout: 5 * time.Second}
	err := cl2.do("POST", "/v1/sessions/s-000001/step", stepReq{Quanta: 1}, nil)
	var he *httpError
	if !asHTTPError(err, &he) || he.status != http.StatusGone {
		t.Fatalf("redirect chain = %v; want a terminal 410", err)
	}
	if got := loopHits.Load(); got != 1 {
		t.Fatalf("followed %d hops past the first redirect; want exactly 1", got)
	}
}

// TestLoadStopsAgainstDeadServer pins that load gives up on a server
// that answers nothing: after the first operation runs out of retries
// without an HTTP response, no further session starts, so a large -n
// fails its SLO within about one retry schedule instead of one
// schedule per session.
func TestLoadStopsAgainstDeadServer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var schedule time.Duration
	for _, d := range opRetry.Schedule() {
		schedule += d
	}
	cl := &client{base: dead.URL, hc: &http.Client{}, opTimeout: 2 * time.Minute}
	t0 := time.Now()
	err := runLoad(cl, 200, 4, server.SessionConfig{}, 0, 0, 0, 1.0, "")
	elapsed := time.Since(t0)
	if err == nil || !strings.Contains(err.Error(), "SLO violation") {
		t.Fatalf("load against a dead server = %v; want an SLO violation", err)
	}
	if limit := schedule + schedule/2; elapsed > limit {
		t.Fatalf("load against a dead server took %v; want under %v (one %v retry schedule)",
			elapsed.Round(time.Millisecond), limit, schedule.Round(time.Millisecond))
	}
}
