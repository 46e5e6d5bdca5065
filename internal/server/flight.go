package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"repro/internal/obs"
)

// The flight recorder. Every session continuously buffers its recent
// past — the published engine-event tail (obsLog) and the lifecycle
// log (events) — and on the failures worth a post-mortem the server
// dumps both to <id>.flight.json, atomically, next to the session's
// manifest. Triggers:
//
//   - the session's engine panicked (chaos-injected or real),
//   - the stall watchdog tripped, or any other engine error,
//   - an eviction could not persist its snapshot (the session survives
//     in memory, but the flight file records what it was doing in case
//     the process dies before a later persist succeeds).
//
// The file is forensic, not operational: restore ignores it, resume
// does not read it, deleting the session removes it.

// flightDump is the on-disk flight-record format, served verbatim by
// GET /v1/sessions/{id}/flight.
type flightDump struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Reason classifies the trigger: panic, stall, engine_error or
	// eviction_failure.
	Reason string `json:"reason"`
	// Detail is the full diagnostic (for panics, including the stack).
	Detail     string `json:"detail,omitempty"`
	State      State  `json:"state"`
	Boundaries uint64 `json:"boundaries"`
	Cycle      uint64 `json:"cycle"`
	DumpedAt   int64  `json:"dumped_at_unix_ns"`
	// Lifecycle is the session's buffered lifecycle event tail
	// (created/live/boundary/evicted/.../failed).
	Lifecycle []Event `json:"lifecycle"`
	// EngineEvents is the published engine-event tail in the /obs wire
	// format, one object per line of the stream — the engine's last
	// recorded moments before the trigger. EngineDropped counts the
	// events up to the newest that the tail lacks — shed by a bounded
	// buffer or overwritten before publish — so EngineDropped plus the
	// tail's length is the newest seq.
	EngineEvents  []json.RawMessage `json:"engine_events"`
	EngineDropped uint64            `json:"engine_dropped,omitempty"`
}

// failureReason classifies a session failure string for the flight
// record (and for anyone grepping flight files by reason).
func failureReason(failure string) string {
	switch {
	case strings.Contains(failure, "panicked"):
		return "panic"
	case strings.Contains(failure, "stall"):
		return "stall"
	default:
		return "engine_error"
	}
}

// dumpFlight writes the session's flight record. Best-effort by
// design: it runs on failure paths where the disk may be the problem,
// so a failed dump is counted as an IO failure and dropped — it must
// never turn one failure into two.
func (s *Server) dumpFlight(sess *Session, reason, detail string) {
	sess.mu.Lock()
	d := flightDump{
		ID: sess.ID, Tenant: sess.Tenant,
		Reason: reason, Detail: detail,
		State: sess.state, Boundaries: sess.boundaries, Cycle: sess.cycle,
		DumpedAt: time.Now().UnixNano(),
	}
	sess.mu.Unlock()
	d.Lifecycle = lifecycle(sess.events)
	var entries []seqEntry[obs.Event]
	entries, d.EngineDropped, _, _ = sess.obsLog.since(0)
	d.EngineEvents = make([]json.RawMessage, 0, len(entries))
	var line []byte
	for _, e := range entries {
		line = obs.AppendEventNDJSON(line[:0], e.seq, e.v)
		d.EngineEvents = append(d.EngineEvents, json.RawMessage(bytes.Clone(bytes.TrimSuffix(line, []byte("\n")))))
	}
	if err := s.store.writeFlight(sess.ID, d); err != nil {
		s.met.ioFailures.Inc(s.shard(sess.ID))
		return
	}
	s.met.flightDumps.Inc(s.shard(sess.ID))
	sess.events.push(Event{Kind: "flight_dumped", Detail: reason})
}

// Flight returns the session's flight record, or ErrNotFound when the
// session does not exist or never dumped one.
func (s *Server) Flight(id string) (json.RawMessage, error) {
	if _, err := s.lookup(id); err != nil {
		return nil, err
	}
	return s.store.loadFlight(id)
}
