package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hybridperf/internal/trace"
)

func TestSpansRingWrap(t *testing.T) {
	s := NewSpans(4)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		start := t0.Add(time.Duration(i) * time.Second)
		s.Record(TraceContext{}, "test", "span", start, start.Add(100*time.Millisecond))
	}
	got := s.Snapshot(t0)
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d spans, want the last 4", len(got))
	}
	// Oldest surviving span started at t0+2s.
	if got[0].Start != 2 {
		t.Errorf("oldest surviving span starts at %g s, want 2", got[0].Start)
	}
	if s.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", s.Dropped())
	}
}

func TestSpansSinceFilter(t *testing.T) {
	s := NewSpans(16)
	t0 := time.Unix(1000, 0)
	s.Record(TraceContext{}, "test", "old", t0, t0.Add(time.Second))
	s.Record(TraceContext{}, "test", "straddles", t0.Add(9*time.Second), t0.Add(11*time.Second))
	s.Record(TraceContext{}, "test", "new", t0.Add(12*time.Second), t0.Add(13*time.Second))

	since := t0.Add(10 * time.Second)
	got := s.Snapshot(since)
	if len(got) != 2 {
		t.Fatalf("snapshot holds %d spans, want 2 (old one filtered)", len(got))
	}
	// A span that began before the window keeps its negative start so the
	// exported duration stays truthful.
	if got[0].Name != "straddles" || got[0].Start != -1 || got[0].End != 1 {
		t.Errorf("straddling span = %+v, want start -1 end 1", got[0])
	}
	if got[1].Name != "new" || got[1].Start != 2 {
		t.Errorf("new span = %+v, want start 2", got[1])
	}
}

func TestSpansRejectsBackwardsClock(t *testing.T) {
	s := NewSpans(4)
	t0 := time.Unix(1000, 0)
	s.Record(TraceContext{}, "test", "backwards", t0, t0.Add(-time.Second))
	if got := s.Snapshot(time.Time{}); len(got) != 0 {
		t.Fatalf("backwards span recorded: %+v", got)
	}
}

func TestSpansNilSafe(t *testing.T) {
	var s *Spans
	s.Record(TraceContext{}, "test", "x", time.Unix(0, 0), time.Unix(1, 0))
	if got := s.Snapshot(time.Time{}); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
	if s.Dropped() != 0 {
		t.Error("nil Dropped != 0")
	}
	if s.Observer("cat") != nil {
		t.Error("nil Observer should return nil so exec skips the hook entirely")
	}
}

func TestSpansObserverAdapter(t *testing.T) {
	s := NewSpans(4)
	obs := s.Observer("exec")
	t0 := time.Unix(1000, 0)
	obs("run SP (4,8,1.8)", t0, t0.Add(time.Second))
	got := s.Snapshot(t0)
	if len(got) != 1 || got[0].Cat != "exec" || got[0].Name != "run SP (4,8,1.8)" {
		t.Fatalf("observer recorded %+v", got)
	}
}

func TestSpansWriteChrome(t *testing.T) {
	s := NewSpans(8)
	t0 := time.Unix(1000, 0)
	tc := NewTrace(false)
	s.RecordRoot(tc, "POST /v1/predict", 200, t0, t0.Add(time.Second))
	var b strings.Builder
	if err := s.WriteChrome(&b, t0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("exported %d events, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "POST /v1/predict" || ev.Ph != "X" || ev.Dur != 1e6 {
		t.Errorf("event = %+v, want complete event of 1e6 us", ev)
	}
	// The export renders the typed record's request id and status.
	if ev.Args["id"] != tc.RequestID() || ev.Args["status"] != float64(200) {
		t.Errorf("args = %v, want id %s and status 200", ev.Args, tc.RequestID())
	}
}

// TestSpansPayloadByTraceID: the trace-id view of the ring returns only
// the sampled records of that trace, oldest first, with the first
// attached phase timeline; unsampled and foreign records stay out.
func TestSpansPayloadByTraceID(t *testing.T) {
	s := NewSpans(16)
	t0 := time.Unix(1000, 0)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	tc := NewTrace(true)
	other := NewTrace(true)
	unsampled := NewTrace(false)

	s.Record(TraceContext{}, "exec", "run", at(0), at(1))
	s.Record(tc, "handler", "decode", at(0), at(1))
	s.Record(other, "model", "predict arm/CP", at(1), at(2))
	first := newPhaseTimeline("first", []trace.Event{{Rank: 0, Kind: trace.Compute, Start: 0, End: 1}})
	second := newPhaseTimeline("second", []trace.Event{{Rank: 1, Kind: trace.Network, Start: 0, End: 1}})
	s.add(spanRec{cat: "model", name: "characterize xeon/SP", start: at(1).UnixNano(), end: at(2).UnixNano(), tc: tc, phases: first})
	s.add(spanRec{cat: "model", name: "characterize xeon/LU", start: at(2).UnixNano(), end: at(3).UnixNano(), tc: tc, phases: second})
	s.RecordRoot(unsampled, "POST /v1/predict", 200, at(0), at(4))
	s.RecordRoot(tc.Child(), "POST /v1/predict", 200, at(0), at(4))

	p := s.Payload(tc.TraceIDString(), "shard-a")
	if p == nil {
		t.Fatal("no payload for a recorded sampled trace")
	}
	want := []string{"handler:decode", "model:characterize xeon/SP", "model:characterize xeon/LU", "http:POST /v1/predict"}
	if got := spanNames(p); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("spans %v, want %v", got, want)
	}
	if p.TraceID != tc.TraceIDString() || p.Source != "shard-a" {
		t.Errorf("payload id %q source %q", p.TraceID, p.Source)
	}
	if p.Spans[3].StartUS != at(0).UnixMicro() || p.Spans[3].EndUS != at(4).UnixMicro() {
		t.Errorf("root span times %+v", p.Spans[3])
	}
	if p.PhaseLabel != "first" || len(p.Phases) != 1 || p.Phases[0].Kind != "compute" {
		t.Errorf("phases %q %+v, want the first attached timeline", p.PhaseLabel, p.Phases)
	}
	if s.Payload(unsampled.TraceIDString(), "x") != nil {
		t.Error("unsampled trace returned a payload")
	}
	for _, id := range []string{"", "zz", strings.Repeat("g", 32), NewTrace(true).TraceIDString()} {
		if s.Payload(id, "x") != nil {
			t.Errorf("Payload(%q) found records", id)
		}
	}
	// Retention is the ring's: once its records are overwritten, the
	// trace is gone.
	for i := 0; i < 16; i++ {
		s.Record(TraceContext{}, "exec", "run", at(5), at(6))
	}
	if s.Payload(tc.TraceIDString(), "x") != nil {
		t.Error("payload survived the ring overwriting its records")
	}
}

// TestNewPhaseTimelineCaps: the timeline a record carries is bounded.
func TestNewPhaseTimelineCaps(t *testing.T) {
	if newPhaseTimeline("x", nil) != nil {
		t.Error("empty timeline should be nil")
	}
	events := make([]trace.Event, maxTracePhases+10)
	if got := len(newPhaseTimeline("x", events).phases); got != maxTracePhases {
		t.Errorf("timeline holds %d phases, want %d", got, maxTracePhases)
	}
}
