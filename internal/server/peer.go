package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/retry"
)

// peerClient is the outbound half of cross-instance migration: it
// pushes transfer envelopes to a peer's /v1/migrations/in endpoint and
// asks the recovery-status question during intent resolution. Every
// call runs under internal/retry with a per-attempt timeout, so one
// hung transfer costs one attempt, not the whole handoff.
type peerClient struct {
	hc    *http.Client
	pol   retry.Policy
	allow []string
	// inert reports that the instance's crash hook has fired; a dead
	// instance sends nothing.
	inert func() bool
}

func newPeerClient(cfg Config) *peerClient {
	pol := cfg.Retry
	pol.AttemptTimeout = cfg.MigrateTimeout
	return &peerClient{
		// Transport defaults are fine; per-attempt deadlines come from
		// the retry policy's AttemptTimeout, not a client-wide timeout
		// (which would also bound the cheap recovery queries).
		hc:    &http.Client{},
		pol:   pol,
		allow: cfg.PeerAllow,
	}
}

// normalizePeer validates a migration target against the allowlist and
// canonicalizes it to a base URL without a trailing slash. Migration
// is a write path into another instance's data directory, so targets
// are opt-in by prefix: "http://10.0.0.8:7070", "http://10.0.0.0:" (a
// prefix), or "*" for any http(s) URL.
func (p *peerClient) normalizePeer(target string) (string, error) {
	if len(p.allow) == 0 {
		return "", errors.New("migration disabled: no -peer-allow configured")
	}
	u, err := url.Parse(target)
	if err != nil {
		return "", fmt.Errorf("bad migration target %q: %w", target, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("bad migration target %q: need an absolute http(s) URL", target)
	}
	base := strings.TrimRight(target, "/")
	for _, a := range p.allow {
		if a == "*" || strings.HasPrefix(base, strings.TrimRight(a, "/")) {
			return base, nil
		}
	}
	return "", fmt.Errorf("migration target %q is not covered by -peer-allow", target)
}

// errPeerFenced marks a 409 from the peer: the envelope's epoch is
// stale (or the ID collides with an unrelated session). Permanent —
// retrying the same epoch cannot succeed.
var errPeerFenced = errors.New("peer fenced the transfer")

// push delivers one transfer envelope, retrying transport failures and
// 5xx/429 responses; onAttempt (optional) observes each try's 1-based
// index before it runs. The returned ack is the target's commit
// receipt.
func (p *peerClient) push(ctx context.Context, target string, env *migrationEnvelope, onAttempt func(int)) (migrationAck, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return migrationAck{}, fmt.Errorf("server: encoding migration envelope: %w", err)
	}
	var ack migrationAck
	err = p.pol.DoWithAttempt(ctx, func(actx context.Context, attempt int) error {
		if p.inert() {
			return retry.Permanent(errCrashed)
		}
		if onAttempt != nil {
			onAttempt(attempt)
		}
		req, err := http.NewRequestWithContext(actx, http.MethodPost, target+"/v1/migrations/in", bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		switch {
		case resp.StatusCode == http.StatusOK:
			if err := json.Unmarshal(data, &ack); err != nil {
				return fmt.Errorf("decoding migration ack: %w", err)
			}
			return nil
		case resp.StatusCode == http.StatusConflict:
			return retry.Permanent(fmt.Errorf("%w: %s", errPeerFenced, firstLine(string(data))))
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			return fmt.Errorf("peer returned %d: %s", resp.StatusCode, firstLine(string(data)))
		default:
			return retry.Permanent(fmt.Errorf("peer refused the transfer (%d): %s", resp.StatusCode, firstLine(string(data))))
		}
	})
	if err != nil {
		return migrationAck{}, err
	}
	return ack, nil
}

// migrationStatusReply is the answer to the recovery question "did
// epoch E of session ID commit on you?". Asking is NOT read-only: a
// "no" fences that epoch at the target, so the asker may safely
// reclaim — the never-both half of exactly-once.
type migrationStatusReply struct {
	ID        string `json:"id"`
	Committed bool   `json:"committed"`
	Epoch     uint64 `json:"epoch"`
}

// status asks target whether (id, epoch) committed there. One retried,
// per-attempt-bounded query; a transport-level failure returns an
// error, meaning "unknown — keep the session fenced and ask again
// later".
func (p *peerClient) status(ctx context.Context, target, id string, epoch uint64) (migrationStatusReply, error) {
	var reply migrationStatusReply
	u := fmt.Sprintf("%s/v1/migrations/in/%s?epoch=%d", target, url.PathEscape(id), epoch)
	err := p.pol.DoWithAttempt(ctx, func(actx context.Context, _ int) error {
		if p.inert() {
			return retry.Permanent(errCrashed)
		}
		req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := p.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("peer returned %d: %s", resp.StatusCode, firstLine(string(data)))
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			return fmt.Errorf("decoding migration status: %w", err)
		}
		return nil
	})
	if err != nil {
		return migrationStatusReply{}, err
	}
	return reply, nil
}

// idLocks hands out one mutex per session ID, so inbound commits and
// recovery-status queries for the same session serialize while
// unrelated migrations proceed in parallel. Entries are reference
// counted and dropped on last unlock.
type idLocks struct {
	mu sync.Mutex
	m  map[string]*idLockEntry
}

type idLockEntry struct {
	ch   chan struct{}
	refs int
}

func newIDLocks() *idLocks {
	return &idLocks{m: make(map[string]*idLockEntry)}
}

func (l *idLocks) lock(id string) {
	l.mu.Lock()
	e, ok := l.m[id]
	if !ok {
		e = &idLockEntry{ch: make(chan struct{}, 1)}
		l.m[id] = e
	}
	e.refs++
	l.mu.Unlock()
	e.ch <- struct{}{}
}

func (l *idLocks) unlock(id string) {
	l.mu.Lock()
	e := l.m[id]
	<-e.ch
	if e.refs--; e.refs == 0 {
		delete(l.m, id)
	}
	l.mu.Unlock()
}
