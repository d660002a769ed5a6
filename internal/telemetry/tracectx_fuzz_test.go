package telemetry

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent: the traceparent header is untrusted input on every
// hop. The parser must never panic, and whatever it accepts must survive
// the wire: re-rendering gives the same ids (lower-cased), re-parsing gives
// the same TraceContext, and Wire agrees with Traceparent and RequestID.
// The seed corpus lives in testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTrace(true).Traceparent())
	f.Add(NewTrace(false).Traceparent())
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		wire := tc.Traceparent()
		if !strings.EqualFold(wire[:53], s[:53]) {
			t.Fatalf("accepted %q re-renders ids as %q", s, wire)
		}
		back, ok := ParseTraceparent(wire)
		if !ok || back != tc {
			t.Fatalf("accepted %q: re-parse of %q = %+v, %v; want %+v", s, wire, back, ok, tc)
		}
		tp, id := tc.Wire()
		if tp != wire || id != tc.RequestID() {
			t.Fatalf("Wire() = %q, %q; want %q, %q", tp, id, wire, tc.RequestID())
		}
	})
}
