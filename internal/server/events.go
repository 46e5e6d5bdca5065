package server

import "encoding/json"

// eventLogCap bounds each session's lifecycle log. Old events fall off
// the front; Seq numbers stay monotonic so a consumer can detect the
// gap.
const eventLogCap = 256

// Event is one observable session transition, streamed as NDJSON from
// the events endpoint. A "gap" event is synthesized (not stored) when
// a reader's cursor falls behind the log: Dropped counts the events
// lost between the cursor and the next retained event, and Seq is the
// last lost sequence number so followers advance past the hole —
// overflow is always reported, never silent.
type Event struct {
	Seq        uint64 `json:"seq"`
	Kind       string `json:"kind"` // created, live, boundary, evicted, resumed, done, failed, deleted, gap, migrate_prepare, migrate_transfer, migrate_retry, migrate_commit, migrate_abort, migrated_in
	Boundaries uint64 `json:"boundaries,omitempty"`
	Cycle      uint64 `json:"cycle,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
}

// wireEvents appends a lifecycle entry to out in wire form — its Seq
// filled in, led by the gap record when lost events precede it.
func wireEvents(out []Event, e seqEntry[Event], lost uint64) []Event {
	if lost > 0 {
		out = append(out, Event{Seq: e.seq - 1, Kind: "gap", Dropped: lost})
	}
	e.v.Seq = e.seq
	return append(out, e.v)
}

// lifecycle returns the retained lifecycle log in wire form.
func lifecycle(l *seqLog[Event]) []Event {
	entries, _, _, _ := l.since(0)
	out := make([]Event, 0, len(entries)+1)
	var after uint64
	for _, e := range entries {
		out = wireEvents(out, e, e.seq-1-after)
		after = e.seq
	}
	return out
}

// appendEventLine renders a lifecycle entry as /events NDJSON lines.
func appendEventLine(buf []byte, e seqEntry[Event], lost uint64) []byte {
	var pair [2]Event
	for _, ev := range wireEvents(pair[:0], e, lost) {
		line, _ := json.Marshal(ev) // strings and integers only: cannot fail
		buf = append(append(buf, line...), '\n')
	}
	return buf
}
