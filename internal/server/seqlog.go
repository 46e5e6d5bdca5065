package server

import (
	"sort"
	"sync"
)

// seqLog is the server's one bounded log: a session's lifecycle
// events, its published engine-event stream, and the server's
// wall-clock spans are all seqLogs. Every entry carries a 1-based
// sequence number assigned at push; the numbering never restarts, so a
// reader holding a cursor (the last seq it saw) can tell exactly what
// it missed.
//
// Storage grows lazily up to the capacity and then overwrites the
// oldest entry in place, so push is O(1) and, once full, allocation
// free. Loss has one rule: a sequence number past a reader's cursor
// that since does not return — fallen off the front, or skipped
// because the producer lost it before it reached the log — is counted
// in since's dropped result, and shows as a discontinuity in the
// returned seqs. Nothing is lost silently.
//
// Followers wait on the notify channel since hands out; the next push,
// skip or close closes it. The channel is made only when a reader asks
// for one, so a push with nobody reading allocates nothing.
type seqLog[T any] struct {
	mu  sync.Mutex
	cap int
	// buf holds the retained entries; once len(buf) == cap, head is the
	// index of the oldest and the next push overwrites it.
	buf  []seqEntry[T]
	head int
	// last is the newest sequence number assigned, pushed or skipped.
	last   uint64
	closed bool
	notify chan struct{}
}

// seqEntry is one retained value with its sequence number.
type seqEntry[T any] struct {
	seq uint64
	v   T
}

func newSeqLog[T any](capacity int) *seqLog[T] {
	return &seqLog[T]{cap: max(capacity, 1)}
}

// push appends vs under the next sequence numbers. A push after close
// is retained for batch readers but does not reopen the stream.
func (l *seqLog[T]) push(vs ...T) {
	l.mu.Lock()
	for _, v := range vs {
		l.last++
		e := seqEntry[T]{seq: l.last, v: v}
		if len(l.buf) < l.cap {
			l.buf = append(l.buf, e)
		} else {
			l.buf[l.head] = e
			l.head = (l.head + 1) % l.cap
		}
	}
	l.wakeLocked()
	l.mu.Unlock()
}

// skip advances the sequence by n without retaining entries: for
// values the producer lost before they reached the log (the engine's
// obs ring overwriting events between publishes).
func (l *seqLog[T]) skip(n uint64) {
	if n == 0 {
		return
	}
	l.mu.Lock()
	l.last += n
	l.wakeLocked()
	l.mu.Unlock()
}

// since returns the retained entries with seq > after, oldest first;
// dropped, the sequence numbers in (after, last] it cannot return; the
// channel closed at the next change; and whether the log is closed —
// closed with nothing new means a follower is done.
func (l *seqLog[T]) since(after uint64) (entries []seqEntry[T], dropped uint64, notify <-chan struct{}, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	entries = l.entriesLocked(after)
	if l.last > after {
		dropped = l.last - after - uint64(len(entries))
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return entries, dropped, l.notify, l.closed
}

// entriesLocked copies out the retained entries past after.
func (l *seqLog[T]) entriesLocked(after uint64) []seqEntry[T] {
	n := len(l.buf)
	at := func(i int) seqEntry[T] { return l.buf[(l.head+i)%n] }
	first := sort.Search(n, func(i int) bool { return at(i).seq > after })
	out := make([]seqEntry[T], 0, n-first)
	for i := first; i < n; i++ {
		out = append(out, at(i))
	}
	return out
}

// close marks the stream complete and wakes every follower so it can
// drain and finish.
func (l *seqLog[T]) close() {
	l.mu.Lock()
	l.closed = true
	l.wakeLocked()
	l.mu.Unlock()
}

func (l *seqLog[T]) wakeLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// lastSeq returns the newest sequence number, pushed or skipped.
func (l *seqLog[T]) lastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// export returns the newest sequence number and a copy of the retained
// entries, for shipping in a migration envelope.
func (l *seqLog[T]) export() (uint64, []seqEntry[T]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.entriesLocked(0)
}

// preload seeds a fresh log with a migrated-in cursor and tail (sorted
// by seq, none past last). The producer's next skip or push continues
// the numbering from last.
func (l *seqLog[T]) preload(last uint64, entries []seqEntry[T]) {
	l.mu.Lock()
	l.last = last
	l.buf = append(l.buf[:0], entries[max(len(entries)-l.cap, 0):]...)
	l.head = 0
	l.mu.Unlock()
}
