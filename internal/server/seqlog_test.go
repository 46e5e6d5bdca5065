package server

import (
	"reflect"
	"testing"
	"time"
)

// TestSeqLog pins the one bounded log's numbering, trimming and loss
// accounting: for every cursor, since returns the retained entries past
// it, and dropped plus those entries covers every sequence number up to
// the newest — fallen off the front or skipped, nothing is silent.
func TestSeqLog(t *testing.T) {
	seqs := func(from, to uint64) []uint64 {
		var out []uint64
		for s := from; s <= to; s++ {
			out = append(out, s)
		}
		return out
	}
	pushN := func(l *seqLog[int], n int) {
		for i := 0; i < n; i++ {
			l.push(i)
		}
	}
	// overflowed: cap 4, ten pushes — 1..6 fell off, 7..10 retained.
	overflowed := func(l *seqLog[int]) { pushN(l, 10) }
	// skipped: 1..3 pushed, 4..5 lost before the log, 6..8 pushed.
	skipped := func(l *seqLog[int]) { pushN(l, 3); l.skip(2); pushN(l, 3) }
	cases := []struct {
		name        string
		cap         int
		fill        func(*seqLog[int])
		after       uint64
		wantSeqs    []uint64
		wantDropped uint64
	}{
		{"empty", 4, func(*seqLog[int]) {}, 0, nil, 0},
		{"below cap", 4, func(l *seqLog[int]) { pushN(l, 3) }, 0, seqs(1, 3), 0},
		{"exactly cap", 4, func(l *seqLog[int]) { pushN(l, 4) }, 0, seqs(1, 4), 0},
		{"leading fall-off", 4, overflowed, 0, seqs(7, 10), 6},
		{"cursor before window", 4, overflowed, 2, seqs(7, 10), 4},
		{"cursor at window edge", 4, overflowed, 6, seqs(7, 10), 0},
		{"cursor inside window", 4, overflowed, 8, seqs(9, 10), 0},
		{"cursor at newest", 4, overflowed, 10, nil, 0},
		{"cursor past newest", 4, overflowed, 12, nil, 0},
		{"interior skip", 8, skipped, 0, []uint64{1, 2, 3, 6, 7, 8}, 2},
		{"cursor inside skip", 8, skipped, 4, seqs(6, 8), 1},
		{"skip then fall-off", 4, skipped, 0, []uint64{3, 6, 7, 8}, 4},
		{"trailing skip", 4, func(l *seqLog[int]) { pushN(l, 2); l.skip(3) }, 1, []uint64{2}, 3},
		{"wrapped twice", 3, func(l *seqLog[int]) { pushN(l, 7) }, 0, seqs(5, 7), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newSeqLog[int](tc.cap)
			tc.fill(l)
			entries, dropped, _, closed := l.since(tc.after)
			var got []uint64
			for _, e := range entries {
				got = append(got, e.seq)
			}
			if !reflect.DeepEqual(got, tc.wantSeqs) || dropped != tc.wantDropped {
				t.Fatalf("since(%d) = seqs %v dropped %d, want %v dropped %d",
					tc.after, got, dropped, tc.wantSeqs, tc.wantDropped)
			}
			if closed {
				t.Fatal("fresh log reports closed")
			}
			// export/preload round-trips the cursor and tail.
			last, tail := l.export()
			m := newSeqLog[int](tc.cap)
			m.preload(last, tail)
			if m.lastSeq() != l.lastSeq() || !reflect.DeepEqual(m.entriesLocked(0), l.entriesLocked(0)) {
				t.Fatalf("preload(export) lost state: last %d vs %d", m.lastSeq(), l.lastSeq())
			}
		})
	}

	t.Run("lifecycle gap record", func(t *testing.T) {
		// The /events wire form: a leading gap whose Seq is the last
		// lost event, so a follower resuming from it continues past the
		// hole, and whose Dropped covers the loss.
		l := newSeqLog[Event](4)
		for i := 0; i < 10; i++ {
			l.push(Event{Kind: "boundary"})
		}
		evs := lifecycle(l)
		if len(evs) != 5 {
			t.Fatalf("lifecycle = %d events, want gap + 4", len(evs))
		}
		if g := evs[0]; g.Kind != "gap" || g.Dropped != 6 || g.Seq != 6 {
			t.Fatalf("gap = %+v, want kind=gap dropped=6 seq=6", g)
		}
		if evs[1].Seq != 7 || evs[4].Seq != 10 {
			t.Fatalf("retained seqs %d..%d, want 7..10", evs[1].Seq, evs[4].Seq)
		}
	})

	t.Run("close wakes a parked follower", func(t *testing.T) {
		l := newSeqLog[int](4)
		l.push(1)
		entries, _, notify, closed := l.since(0)
		if len(entries) != 1 || closed {
			t.Fatalf("since(0) = %d entries closed=%v, want 1 open", len(entries), closed)
		}
		woke := make(chan struct{})
		go func() {
			<-notify
			close(woke)
		}()
		l.close()
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatal("close did not wake the parked follower")
		}
		// Drained and closed: the follower is done. A later push is kept
		// for batch readers but does not reopen the stream.
		if entries, _, _, closed := l.since(1); len(entries) != 0 || !closed {
			t.Fatalf("after close: %d entries closed=%v, want 0 closed", len(entries), closed)
		}
		l.push(2)
		if entries, _, _, closed := l.since(1); len(entries) != 1 || !closed {
			t.Fatalf("push after close: %d entries closed=%v, want 1 closed", len(entries), closed)
		}
	})

	t.Run("concurrent followers account for every seq", func(t *testing.T) {
		// One producer pushes and skips while followers drain as the
		// /events and /obs loop does; each follower's entries plus the
		// holes between them must cover every sequence number exactly
		// once, with no wakeup lost before close.
		const pushes, followers = 2000, 4
		l := newSeqLog[int](16)
		type tally struct{ seen, dropped, last uint64 }
		results := make(chan tally, followers)
		for i := 0; i < followers; i++ {
			go func() {
				var tl tally
				for {
					entries, _, notify, closed := l.since(tl.last)
					for _, e := range entries {
						tl.dropped += e.seq - 1 - tl.last
						tl.seen++
						tl.last = e.seq
					}
					if closed {
						// Drained: what since still reports past the
						// cursor is the trailing skip.
						_, trailing, _, _ := l.since(tl.last)
						tl.dropped += trailing
						results <- tl
						return
					}
					<-notify
				}
			}()
		}
		for i := 0; i < pushes; i++ {
			l.push(i)
			if i%97 == 0 {
				l.skip(3)
			}
		}
		l.skip(2) // a trailing hole no later entry follows
		l.close()
		want := l.lastSeq()
		for i := 0; i < followers; i++ {
			select {
			case tl := <-results:
				if tl.seen+tl.dropped != want {
					t.Errorf("follower saw %d + dropped %d, want %d", tl.seen, tl.dropped, want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("follower never finished: a wakeup was lost")
			}
		}
	})

	t.Run("push at capacity allocates nothing", func(t *testing.T) {
		events := newSeqLog[Event](eventLogCap)
		spans := newSeqLog[span](8)
		for i := 0; i < eventLogCap; i++ {
			events.push(Event{Kind: "boundary"})
		}
		for i := 0; i < 8; i++ {
			spans.push(span{name: "engine.run"})
		}
		// A reader that asked for notify and went away: the next push
		// closes the channel, and pushes after that find none.
		events.since(0)
		ev := Event{Kind: "boundary", Boundaries: 7}
		sp := span{name: "engine.run", sess: "s1", start: time.Now()}
		if n := testing.AllocsPerRun(1000, func() { events.push(ev) }); n != 0 {
			t.Errorf("lifecycle push at capacity: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(1000, func() { spans.push(sp) }); n != 0 {
			t.Errorf("span push at capacity: %v allocs, want 0", n)
		}
	})
}
