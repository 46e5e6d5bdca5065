package server

import (
	"bufio"
	"context"
	"io"
	"sort"
	"strconv"
	"time"
)

// Wall-clock request tracing. The engine's own trace (internal/obs,
// Chrome format over virtual cycles) answers "what did the simulation
// do"; the span recorder here answers "where did the request's wall
// time go" — admission wait, grant wait, engine execution, snapshot
// write, eviction. Spans carry the request ID that caused them and,
// for engine-side spans, the virtual cycle and boundary count at
// completion, so the two traces can be aligned at step boundaries:
// find the engine.run span's cycle, find the same cycle on the virtual
// timeline.

// span is one completed wall-clock interval.
type span struct {
	// name identifies the phase: admission.wait, grant.wait,
	// engine.run, snapshot.write, evict.
	name string
	// req is the X-Request-ID of the request that caused the span
	// (empty for server-initiated work like shutdown persists).
	req string
	// sess is the session the span belongs to; spans render on
	// per-session lanes.
	sess  string
	start time.Time
	dur   time.Duration
	// cycle/boundaries snapshot the session's virtual clock when the
	// span closed; quanta is the grant's budget. Zero when not
	// applicable.
	cycle, boundaries, quanta uint64
}

// WriteServerTrace renders the retained spans as a Chrome trace
// (chrome://tracing, Perfetto): one pid, one lane (tid) per session,
// timestamps in microseconds since server boot. Complete ("X") events
// carry req/quanta/cycle/boundaries as args; otherData.dropped_spans
// counts the oldest spans the bounded log (TraceSpanCap) shed, so the
// export always says what it is missing.
func (s *Server) WriteServerTrace(w io.Writer) error {
	spans, dropped, _, _ := s.spans.since(0)

	// Stable lane assignment: sessions sorted by ID, plus a lane 0 for
	// spans with no session.
	lane := map[string]int{}
	var ids []string
	for _, e := range spans {
		if _, ok := lane[e.v.sess]; !ok {
			lane[e.v.sess] = 0
			ids = append(ids, e.v.sess)
		}
	}
	sort.Strings(ids)
	for i, id := range ids {
		lane[id] = i + 1
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	var buf []byte
	emit := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.Write(buf)
		buf = buf[:0]
	}
	for id, tid := range lane {
		name := id
		if name == "" {
			name = "(server)"
		}
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, `}}`...)
		emit()
	}
	for _, e := range spans {
		sp := e.v
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, sp.name)
		buf = append(buf, `,"ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(lane[sp.sess]), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendInt(buf, (sp.start.UnixNano()-s.bootNanos)/1e3, 10)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, sp.dur.Microseconds(), 10)
		buf = append(buf, `,"args":{`...)
		buf = append(buf, `"req":`...)
		buf = strconv.AppendQuote(buf, sp.req)
		if sp.quanta > 0 {
			buf = append(buf, `,"quanta":`...)
			buf = strconv.AppendUint(buf, sp.quanta, 10)
		}
		if sp.cycle > 0 {
			buf = append(buf, `,"cycle":`...)
			buf = strconv.AppendUint(buf, sp.cycle, 10)
		}
		if sp.boundaries > 0 {
			buf = append(buf, `,"boundaries":`...)
			buf = strconv.AppendUint(buf, sp.boundaries, 10)
		}
		buf = append(buf, `}}`...)
		emit()
	}
	bw.WriteString("\n],\"otherData\":{\"dropped_spans\":\"")
	bw.WriteString(strconv.FormatUint(dropped, 10))
	bw.WriteString("\"}}\n")
	return bw.Flush()
}

// reqIDKey carries the request ID through contexts.
type reqIDKey struct{}

// RequestID returns the request ID the HTTP layer attached to ctx, or
// "" for contexts that never passed through it.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// WithRequestID returns a ctx carrying the given request ID; the HTTP
// middleware applies it, and tests or embedded callers can too.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// nextRequestID generates an ID for requests that arrive without one:
// unique within the process (reqSeq) and across restarts (bootNanos).
func (s *Server) nextRequestID() string {
	return "r-" + strconv.FormatInt(s.bootNanos, 36) + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}
