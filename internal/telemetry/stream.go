package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// streamFlushEvery is how many NDJSON lines are written between two
// explicit flushes: frequent enough that a client renders the frontier
// incrementally, rare enough that flushing doesn't dominate large batch
// answers.
const streamFlushEvery = 32

// wantStream reports whether the client opted into NDJSON streaming, via
// `Accept: application/x-ndjson` or a `stream=1` query parameter.
func wantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// mustJSON marshals a response fragment that is built from already
// validated data; a marshal failure is a programming error, not a request
// error.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("telemetry: marshalling response fragment: %v", err))
	}
	return b
}

// cachedDo runs compute through the response cache when one is
// configured — cache hit, singleflight collapse, or leader compute — and
// directly otherwise.
func (s *Server) cachedDo(ctx context.Context, key string, compute func() (*cachedResponse, error)) (*cachedResponse, cacheStatus, error) {
	if s.respCache == nil {
		resp, err := compute()
		return resp, cacheBypass, err
	}
	return s.respCache.do(ctx, key, compute)
}

// writeCached serves a computed or cached response in the shape the
// client asked for: the canonical JSON document, or its NDJSON line
// sequence with periodic flushes (and an early stop once the client is
// gone). The cache status is surfaced as X-Response-Cache and annotated
// onto the access-log line, and the response's stored cost attribution is
// stamped on — identically whether the body was just computed or replayed
// from the cache.
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, route string, resp *cachedResponse, status cacheStatus) {
	annotate(r.Context(), slog.String("cache", string(status)))
	w.Header().Set("X-Response-Cache", string(status))
	s.applyAttribution(w, r, route, resp.attr)
	if !wantStream(r) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(resp.body)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	done := r.Context().Done()
	for i, line := range resp.lines {
		select {
		case <-done:
			return // client gone: shed the rest of the stream
		default:
		}
		w.Write(line)
		w.Write([]byte{'\n'})
		if flusher != nil && (i+1)%streamFlushEvery == 0 {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// respondCached is the shared tail of the cacheable handlers (/v1/sweep,
// /v1/batch): run compute through the cache, map compute errors to the
// same statuses the uncached paths used (429 shed, 503 interrupted, 500
// otherwise), and serve the answer in the requested shape.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request, route, key string, compute func() (*cachedResponse, error)) {
	lookup := time.Now()
	resp, status, err := s.cachedDo(r.Context(), key, compute)
	if err != nil {
		annotate(r.Context(), slog.String("cache", string(status)))
		if errors.Is(err, errSaturated) {
			s.reject(w, route)
			return
		}
		if interrupted(w, err) {
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A hit (or a collapse onto someone else's compute) is pure cache
	// time from this request's point of view; on a miss the compute
	// closure records its own characterize/evaluate/render children over
	// the same interval instead.
	if status == cacheHit || status == cacheCollapsed {
		tc, _ := traceContextFor(r.Context())
		s.spans.stage(tc, "cache-lookup", lookup)
	}
	s.writeCached(w, r, route, resp, status)
}
