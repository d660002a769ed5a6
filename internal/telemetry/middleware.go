package telemetry

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// statusWriter captures the response status and body size for the access
// log and the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so NDJSON streaming handlers can
// push partial responses through the middleware.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// annotations carries the model coordinates a handler attaches to its
// request so the access-log line can report them (program, system, class,
// config) without the middleware knowing any route's schema. It doubles
// as the request's identity carrier — id, trace context, cost
// attribution — so the hot path pays for one context value instead of
// three (each context.WithValue is an allocation, plus one boxing the
// value; the cache-hit path logs all of this on every request).
type annotations struct {
	id string       // set once by instrument, immutable after
	tc TraceContext // this hop's trace context

	mu    sync.Mutex
	attrs []slog.Attr
	attr  attribution
}

type annotationsKey struct{}

// annotate appends structured attributes to the request's access-log line.
// It is a no-op for contexts without an annotation carrier (e.g. direct
// handler tests).
func annotate(ctx context.Context, attrs ...slog.Attr) {
	a, _ := ctx.Value(annotationsKey{}).(*annotations)
	if a == nil {
		return
	}
	a.mu.Lock()
	a.attrs = append(a.attrs, attrs...)
	a.mu.Unlock()
}

// traceContextFor returns the hop's trace context: from the carrier for
// requests that passed instrument, falling back to an explicitly
// attached one (WithTraceContext) for everything else.
func traceContextFor(ctx context.Context) (TraceContext, bool) {
	if a, ok := ctx.Value(annotationsKey{}).(*annotations); ok {
		return a.tc, true
	}
	return TraceContextFrom(ctx)
}

// instrument wraps a handler with the full observability stack: the
// trace context (parsed from an incoming traceparent or minted here,
// with X-Request-Id derived from it), the in-flight gauge, per-route
// request counting and latency observation, a recorded span, panic
// recovery (500 + stack log instead of a dead connection), the optional
// per-request deadline, cancellation accounting, and one structured
// access-log line carrying whatever coordinates the handler annotated.
//
// Tracing: an incoming traceparent wins — its trace id and sampled flag
// propagate, this hop just mints its own span id — so the edge that
// minted the trace decides sampling for the whole chain. Requests
// without one mint a fresh context, sampled per Config.TraceSample.
// Every request records its root span into the span ring under its
// trace context; sampled requests also record handler stages there, and
// GET /debug/trace/{traceid} returns them.
//
// The /metrics route is exempt from the in-flight gauge: a scrape would
// otherwise always observe itself as one in-flight request, so the gauge
// could never read 0 from outside. /debug/trace is exempt from the
// request deadline — it blocks for its recording window by design.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	trackInflight := route != "/metrics"
	applyTimeout := s.cfg.RequestTimeout > 0 && route != "/debug/trace"
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, fromWire := ParseTraceparent(r.Header.Get(TraceparentHeader))
		if fromWire {
			tc = tc.Child()
		} else {
			tc = NewTrace(s.sampleTrace())
		}
		tp, id := tc.Wire()
		w.Header().Set("X-Request-Id", id)
		w.Header().Set(TraceparentHeader, tp)
		// A forwarding hop overwrites this with the origin replica's value,
		// so the client always sees the shard whose cache did the work.
		if s.self != "" {
			w.Header().Set(shardHeader, s.self)
		}

		ann := &annotations{id: id, tc: tc}
		ctx := context.WithValue(r.Context(), annotationsKey{}, ann)
		if applyTimeout {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		if trackInflight {
			s.mInflight.With().Inc()
		}
		defer func() {
			if trackInflight {
				s.mInflight.With().Dec()
			}
			// A context that ended before the handler returned means the
			// request was cut short: deadline expiry or client disconnect.
			if err := ctx.Err(); err != nil {
				reason := "disconnect"
				if err == context.DeadlineExceeded {
					reason = "timeout"
				}
				s.mCancelled.With(route, reason).Inc()
			}
			if rec := recover(); rec != nil {
				s.mPanics.With(route).Inc()
				s.log.LogAttrs(ctx, slog.LevelError, "panic",
					slog.String("id", id),
					slog.String("route", route),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())))
				if sw.status == 0 {
					sw.Header().Set("Content-Type", "application/json")
					sw.WriteHeader(http.StatusInternalServerError)
					fmt.Fprintln(sw, `{"error":"internal server error","status":500}`)
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			end := time.Now()
			dur := end.Sub(start)
			s.mReq.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
			s.mDur.With(route).Observe(dur.Seconds())
			// The root span closes last, so every child nests inside it
			// in the stitched view.
			s.spans.RecordRoot(tc, r.Method+" "+route, sw.status, start, end)
			ann.mu.Lock()
			attrs := make([]slog.Attr, 0, 10+len(ann.attrs))
			attrs = append(attrs,
				slog.String("id", id),
				// The request id embeds the trace id (r-<trace>.<span>);
				// slicing it avoids re-rendering the hex per request.
				slog.String("trace", id[2:34]),
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", dur))
			if ann.attr.predsStr != "" {
				attrs = append(attrs,
					slog.String("predictions", ann.attr.predsStr),
					slog.String("sim_s", ann.attr.simStr),
					slog.String("energy_j", ann.attr.energyStr))
			}
			attrs = append(attrs, ann.attrs...)
			ann.mu.Unlock()
			level := slog.LevelInfo
			if sw.status >= 500 {
				level = slog.LevelError
			}
			s.log.LogAttrs(ctx, level, "request", attrs...)
		}()
		h(sw, r)
	}
}
