package telemetry

// The one wall-clock span store. Every interval a hop records — the HTTP
// root span, the handler's decode/cache-lookup/render stages, the model
// spans (characterize, predict, evaluate, advise) and the engine's exec
// runs — is recorded once, into one bounded ring. Two endpoints read it:
// GET /debug/trace?duration filters it by time ("what is this server
// doing right now"), and GET /debug/trace/{traceid} filters it by trace
// id, returning the sampled records of one request ("what did this
// request cost, and where"). The gateway fetches every shard's payload
// for one trace id and stitches them into a single Chrome-trace file
// (see internal/gateway and trace.WriteChromeProcesses).
//
// Sampling decides which spans are recorded, not where: an unsampled
// request records its root and model spans, a sampled one adds its
// handler stages and, when it pays for a cold characterisation, the
// engine's per-rank phase timeline. A sampled trace stays pullable while
// its records remain in the ring.

import (
	"encoding/hex"
	"io"
	"sync"
	"time"

	"hybridperf/internal/trace"
)

// maxTracePhases bounds the engine timeline one record carries: a
// runaway campaign cannot grow a sampled request's trace without bound
// (excess phases are dropped, the truncation is visible as a missing
// tail, not an error).
const maxTracePhases = 16384

// TraceSpan is one recorded interval of a request, in wire form. Times
// are Unix microseconds, so payloads from different replicas stitch on
// one wall-clock axis (replicas share a host in tests and CI; across
// real machines the stitch is as good as their clock sync).
type TraceSpan struct {
	Name    string `json:"name"`
	Cat     string `json:"cat"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// TracePhase is one engine phase (virtual seconds) attached to a
// sampled request's characterisation run.
type TracePhase struct {
	Rank   int     `json:"rank"`
	Kind   string  `json:"kind"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// TracePayload is the pull-endpoint wire form of one hop's sampled
// request trace.
type TracePayload struct {
	TraceID    string       `json:"trace_id"`
	Source     string       `json:"source"` // replica/gateway identity that recorded it
	Spans      []TraceSpan  `json:"spans"`
	PhaseLabel string       `json:"phase_label,omitempty"`
	Phases     []TracePhase `json:"phases,omitempty"`
}

// Spans is the bounded ring of recent wall-clock spans. Recording is one
// mutexed store of a typed record; everything rendered (Chrome-trace
// args, trace-payload JSON) is built at export time. A nil *Spans
// ignores all calls, so callers need no conditionals.
type Spans struct {
	mu      sync.Mutex
	buf     []spanRec
	next    int
	full    bool
	dropped uint64 // spans overwritten since start
}

// spanRec is one recorded span.
type spanRec struct {
	cat, name  string
	start, end int64        // Unix nanoseconds
	tc         TraceContext // the request hop that recorded it; zero outside any request
	status     int          // HTTP status of a root span, 0 for every other span
	phases     *phaseTimeline
}

// phaseTimeline is an engine per-rank phase timeline (virtual seconds)
// riding on the characterisation span that produced it.
type phaseTimeline struct {
	label  string
	phases []TracePhase
}

// newPhaseTimeline converts a campaign's phase events to wire form,
// capped at maxTracePhases; nil when there are none.
func newPhaseTimeline(label string, events []trace.Event) *phaseTimeline {
	if len(events) == 0 {
		return nil
	}
	if len(events) > maxTracePhases {
		events = events[:maxTracePhases]
	}
	pt := &phaseTimeline{label: label, phases: make([]TracePhase, len(events))}
	for i, e := range events {
		pt.phases[i] = TracePhase{Rank: e.Rank, Kind: e.Kind.String(), StartS: e.Start, EndS: e.End}
	}
	return pt
}

// NewSpans creates a recorder holding the most recent capacity spans
// (<= 0 means a default of 4096).
func NewSpans(capacity int) *Spans {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Spans{buf: make([]spanRec, 0, capacity)}
}

// add stores one record, overwriting the oldest once the ring is full.
// Records with end before start are ignored (a misbehaving clock must
// not corrupt the export).
func (s *Spans) add(rec spanRec) {
	if s == nil || rec.end < rec.start {
		return
	}
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, rec)
	} else {
		s.buf[s.next] = rec
		s.next = (s.next + 1) % cap(s.buf)
		s.full = true
		s.dropped++
	}
	s.mu.Unlock()
}

// Record records one completed span of the request hop tc (the zero
// TraceContext for a span outside any request).
func (s *Spans) Record(tc TraceContext, cat, name string, start, end time.Time) {
	s.add(spanRec{cat: cat, name: name, start: start.UnixNano(), end: end.UnixNano(), tc: tc})
}

// RecordRoot records a request hop's root span, which carries the
// response status.
func (s *Spans) RecordRoot(tc TraceContext, name string, status int, start, end time.Time) {
	s.add(spanRec{cat: "http", name: name, start: start.UnixNano(), end: end.UnixNano(), tc: tc, status: status})
}

// stageStart reads the clock for a sampled request's handler stage; an
// unsampled request gets the zero time and skips the clock read.
func stageStart(tc TraceContext) time.Time {
	if !tc.Sampled {
		return time.Time{}
	}
	return time.Now()
}

// stage records a handler stage from start (see stageStart) to now, for
// sampled requests only.
func (s *Spans) stage(tc TraceContext, name string, start time.Time) {
	if tc.Sampled {
		s.Record(tc, "handler", name, start, time.Now())
	}
}

// Observer adapts the recorder to the exec/characterize Observe hook
// shape, tagging every span with the given category.
func (s *Spans) Observer(cat string) func(label string, start, end time.Time) {
	if s == nil {
		return nil
	}
	return func(label string, start, end time.Time) {
		s.Record(TraceContext{}, cat, label, start, end)
	}
}

// each calls fn on every record, oldest first, under the lock.
func (s *Spans) each(fn func(r *spanRec)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		for i := range s.buf[s.next:] {
			fn(&s.buf[s.next+i])
		}
		for i := range s.buf[:s.next] {
			fn(&s.buf[i])
		}
		return
	}
	for i := range s.buf {
		fn(&s.buf[i])
	}
}

// Snapshot returns the recorded spans that end at or after since, as
// trace.Spans with times in seconds relative to since (spans that began
// earlier get a negative start — the viewer handles it, and clamping
// would misreport durations). A span recorded under a request carries
// its request id, and a root span its status, as args.
func (s *Spans) Snapshot(since time.Time) []trace.Span {
	if s == nil {
		return nil
	}
	var recs []spanRec
	s.each(func(r *spanRec) {
		if !time.Unix(0, r.end).Before(since) {
			recs = append(recs, *r)
		}
	})
	var out []trace.Span
	for _, r := range recs {
		sp := trace.Span{
			Name:  r.name,
			Cat:   r.cat,
			Start: time.Unix(0, r.start).Sub(since).Seconds(),
			End:   time.Unix(0, r.end).Sub(since).Seconds(),
		}
		if r.tc.TraceID != ([16]byte{}) {
			sp.Args = map[string]any{"id": r.tc.RequestID()}
			if r.status != 0 {
				sp.Args["status"] = r.status
			}
		}
		out = append(out, sp)
	}
	return out
}

// Payload returns the sampled records of one trace id in wire form,
// oldest first, with the first engine phase timeline among them; nil
// when the ring holds none (unknown, unsampled or overwritten).
func (s *Spans) Payload(traceID, source string) *TracePayload {
	if s == nil {
		return nil
	}
	var id [16]byte
	if len(traceID) != 2*len(id) {
		return nil
	}
	if _, err := hex.Decode(id[:], []byte(traceID)); err != nil {
		return nil
	}
	p := &TracePayload{TraceID: TraceContext{TraceID: id}.TraceIDString(), Source: source}
	s.each(func(r *spanRec) {
		if !r.tc.Sampled || r.tc.TraceID != id {
			return
		}
		p.Spans = append(p.Spans, TraceSpan{Name: r.name, Cat: r.cat, StartUS: r.start / 1e3, EndUS: r.end / 1e3})
		if r.phases != nil && p.Phases == nil {
			p.PhaseLabel, p.Phases = r.phases.label, r.phases.phases
		}
	})
	if len(p.Spans) == 0 {
		return nil
	}
	return p
}

// Dropped reports how many spans the ring has overwritten.
func (s *Spans) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// WriteChrome exports the spans ending at or after since as Chrome-trace
// JSON (chrome://tracing, Perfetto).
func (s *Spans) WriteChrome(w io.Writer, since time.Time) error {
	return trace.WriteChromeSpans(w, s.Snapshot(since))
}
