// Package gateway implements hybridperf-gw: a stateless front for a
// sharded hybridperfd cluster. The gateway owns no models. Requests that
// name one model key (/v1/predict, /v1/sweep, /v1/advise) are relayed
// verbatim to the replica owning that (system, program) on the same
// consistent-hash ring the replicas use, failing over along the ring.
// /v1/batch bodies are split into one sub-batch per owning shard, and the
// shards' NDJSON answers are merged back by model group into the
// replicas' canonical order, so a response through the gateway is
// byte-identical to the same request served by a single daemon.
//
// Degradation is graceful by construction: a dead shard costs the tuples
// it owned, not the request — the merged answer carries the surviving
// results plus one error annotation per failed shard, and only a request
// whose every sub-request failed becomes a 503.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridperf/internal/cluster"
	"hybridperf/internal/machine"
	"hybridperf/internal/telemetry"
	"hybridperf/internal/workload"
)

// forwardedHeader mirrors the replicas' loop-prevention header. The
// gateway sets it on every sub-request: the gateway already routed by
// ownership, so the receiving shard must serve locally instead of adding
// a second hop.
const forwardedHeader = "X-Hybridperf-Forwarded"

// The batch limits mirror the replicas' request bounds, so the gateway
// rejects what every shard would reject — without a round trip.
const (
	maxBatchTuples    = 65536
	maxBatchBodyBytes = 8 << 20
)

// Gateway fans requests across a static shard list. Build with New,
// mount with Handler.
type Gateway struct {
	ring   *cluster.Ring
	peers  []string
	client *http.Client
	log    *slog.Logger
	reg    *telemetry.Registry
	start  time.Time

	// sample is the gateway's trace-sampling probability for requests
	// that arrive without a traceparent (see SetTraceSample); spans
	// holds this hop's sampled root and fan-out spans for the stitch
	// endpoint.
	sample float64
	spans  *telemetry.Spans

	mReq    *telemetry.CounterVec
	mFan    *telemetry.CounterVec
	mFanErr *telemetry.CounterVec
	mPeerUp *telemetry.GaugeVec
	mPreds  *telemetry.CounterVec
	mSimS   *telemetry.FloatCounterVec
	mEnergy *telemetry.FloatCounterVec
}

// New builds a gateway over the given shard base URLs (the same list, in
// any order, that each shard was given as -peers).
func New(peers []string, logger *slog.Logger) (*Gateway, error) {
	ring, err := cluster.New(peers, 0)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.Default()
	}
	g := &Gateway{
		ring:   ring,
		peers:  ring.Peers(),
		client: &http.Client{},
		log:    logger,
		reg:    telemetry.NewRegistry(),
		start:  time.Now(),
		spans:  telemetry.NewSpans(0),
	}
	g.mReq = g.reg.Counter("hybridperf_gateway_requests_total",
		"Requests served by the gateway, by route and status code.", "route", "code")
	g.mFan = g.reg.Counter("hybridperf_gateway_fanout_total",
		"Sub-requests dispatched to shards, by peer.", "peer")
	g.mFanErr = g.reg.Counter("hybridperf_gateway_fanout_errors_total",
		"Sub-requests that failed (transport error or non-2xx), by peer.", "peer")
	g.mPeerUp = g.reg.Gauge("hybridperf_gateway_peer_up",
		"Last /readyz probe outcome per shard: 1 reachable and healthy, 0 not.", "peer")
	g.mPreds = g.reg.Counter("hybridperf_gateway_predictions_total",
		"Predictions relayed to clients through the gateway, by route.", "route")
	g.mSimS = g.reg.FloatCounter("hybridperf_gateway_simulated_seconds_total",
		"Predicted application runtime (virtual seconds) summed over relayed predictions, by route.", "route")
	g.mEnergy = g.reg.FloatCounter("hybridperf_gateway_predicted_energy_joules_total",
		"Predicted energy (joules) summed over relayed predictions, by route.", "route")
	// Peers start unknown-down until the first probe, so the series exist
	// (and alert rules have a value) from the first scrape.
	for _, p := range g.peers {
		g.mPeerUp.With(p).Set(0)
	}
	g.reg.OnScrape(func(w io.Writer) {
		fmt.Fprintf(w, "# HELP hybridperf_gateway_uptime_seconds Seconds since the gateway started.\n"+
			"# TYPE hybridperf_gateway_uptime_seconds gauge\nhybridperf_gateway_uptime_seconds %g\n",
			time.Since(g.start).Seconds())
	})
	return g, nil
}

// Registry exposes the gateway's metric registry (tests).
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// SetTraceSample sets the fraction of traceparent-less requests the
// gateway samples (0 = never, 1 = always). An incoming traceparent's
// sampled flag always wins, exactly as on the shards. Call before
// serving.
func (g *Gateway) SetTraceSample(p float64) { g.sample = p }

func (g *Gateway) sampleTrace() bool {
	if g.sample <= 0 {
		return false
	}
	if g.sample >= 1 {
		return true
	}
	return rand.Float64() < g.sample
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, route := range []string{"/v1/predict", "/v1/sweep", "/v1/advise"} {
		mux.HandleFunc("POST "+route, g.observe(route, g.relay(route)))
	}
	mux.HandleFunc("POST /v1/batch", g.observe("/v1/batch", g.handleBatch))
	mux.HandleFunc("GET /v1/systems", g.observe("/v1/systems", g.handleSystems))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.reg.WriteText(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.HandleFunc("GET /debug/trace/{traceid}", g.observe("/debug/trace/{traceid}", g.handleTraceByID))
	return mux
}

// observe wraps a handler with the request counter, the trace context
// (parsed from an incoming traceparent or minted here — the gateway is
// usually the edge that decides sampling for the whole chain) and one
// access-log line carrying the request and trace ids. Sampled requests
// record their root span (and post their fan-out spans) into the
// gateway's own span ring, one stitch source among the shards'.
func (g *Gateway) observe(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tc, fromWire := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
		if fromWire {
			tc = tc.Child()
		} else {
			tc = telemetry.NewTrace(g.sampleTrace())
		}
		id := tc.RequestID()
		w.Header().Set("X-Request-Id", id)
		w.Header().Set(telemetry.TraceparentHeader, tc.Traceparent())
		ctx := telemetry.WithTraceContext(r.Context(), tc)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		end := time.Now()
		if tc.Sampled {
			g.spans.RecordRoot(tc, r.Method+" "+route, sw.status, start, end)
		}
		g.mReq.With(route, strconv.Itoa(sw.status)).Inc()
		g.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("trace", tc.TraceIDString()),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Duration("duration", end.Sub(start)))
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
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
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleReady probes every shard's health endpoint and reports the live
// per-peer picture: a JSON document naming each peer's status (so an
// operator sees which shard is down, not just how many), with the same
// outcomes published as the hybridperf_gateway_peer_up gauge. The
// gateway is ready (200) when at least one shard is — a gateway with a
// fully dead cluster serves nothing but 503s, so it should not attract
// traffic.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	type probe struct {
		idx int
		ok  bool
	}
	results := make(chan probe, len(g.peers))
	for i, p := range g.peers {
		go func(i int, p string) {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p+"/healthz", nil)
			if err != nil {
				results <- probe{i, false}
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				results <- probe{i, false}
				return
			}
			resp.Body.Close()
			results <- probe{i, resp.StatusCode == http.StatusOK}
		}(i, p)
	}
	okByPeer := make([]bool, len(g.peers))
	up := 0
	for range g.peers {
		p := <-results
		okByPeer[p.idx] = p.ok
		if p.ok {
			up++
		}
	}
	type peerStatus struct {
		Peer string `json:"peer"`
		Up   bool   `json:"up"`
	}
	doc := struct {
		Ready bool         `json:"ready"`
		Up    int          `json:"up"`
		Peers []peerStatus `json:"peers"`
	}{Ready: up > 0, Up: up, Peers: make([]peerStatus, len(g.peers))}
	for i, p := range g.peers {
		doc.Peers[i] = peerStatus{Peer: p, Up: okByPeer[i]}
		var v int64
		if okByPeer[i] {
			v = 1
		}
		g.mPeerUp.With(p).Set(v)
	}
	w.Header().Set("Content-Type", "application/json")
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(doc)
}

// ---------------------------------------------------------------------
// Request shapes the gateway reads. batchRequest is re-marshalled into
// the per-shard sub-batches, so its tags must match internal/telemetry's.

type batchTuple struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

type batchRequest struct {
	Class   string       `json:"class"`
	Engine  string       `json:"engine"` // relayed: shards validate it
	Workers int          `json:"workers"`
	Tuples  []batchTuple `json:"tuples"`
}

// shardError annotates one failed sub-request on a partial answer.
type shardError struct {
	Shard  string `json:"shard"`
	Error  string `json:"error"`
	Tuples int    `json:"tuples,omitempty"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"status": status,
	})
}

// readBody reads a request body under the replicas' size cap, answering
// 413 (too large) or 400 itself when it cannot.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// decodeStrict mirrors the replicas' body handling: bounded, unknown
// fields rejected, trailing data rejected.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body, ok := readBody(w, r, limit)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		httpError(w, http.StatusBadRequest, "invalid JSON body: trailing data after the request object")
		return false
	}
	return true
}

func wantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("gateway: marshalling response fragment: %v", err))
	}
	return b
}

// ---------------------------------------------------------------------
// Shard transport.

// shardStatusError is a shard's own non-2xx HTTP answer — as opposed to
// a transport failure (dial refused, reset, timeout). The distinction
// drives failover: a transport failure is worth trying the next replica,
// an HTTP answer would be identical everywhere.
type shardStatusError struct {
	peer    string
	status  int
	message string
	// retryAfter is the shard's own Retry-After header on a 429/503,
	// relayed to gateway clients so they honour the shard's backoff
	// rather than a hardcoded hint.
	retryAfter string
}

func (e *shardStatusError) Error() string {
	if e.message != "" {
		return fmt.Sprintf("shard %s: %s (status %d)", e.peer, e.message, e.status)
	}
	return fmt.Sprintf("shard %s: status %d", e.peer, e.status)
}

// post sends one sub-request to a shard and returns the response body
// and headers. Non-2xx answers are errors carrying the shard's error
// message (and its Retry-After hint, when present), so the annotation on
// a partial result explains the failure, not just names it; the body
// still comes back, for callers that relay it verbatim.
func (g *Gateway) post(r *http.Request, peer, path string, body []byte, stream bool) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "gateway")
	if stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	// Each fan-out leg is one hop of the request's trace: same trace id
	// and sampling decision, a fresh span id — so a sampled request
	// through the gateway samples on every shard it touches, and the
	// stitch endpoint can collect all their payloads under one id.
	if tc, ok := telemetry.TraceContextFrom(r.Context()); ok {
		req.Header.Set(telemetry.TraceparentHeader, tc.Child().Traceparent())
		if tc.Sampled {
			start := time.Now()
			defer func() { g.spans.Record(tc, "gateway", "fanout "+peer+path, start, time.Now()) }()
		}
	}
	g.mFan.With(peer).Inc()
	resp, err := g.client.Do(req)
	if err != nil {
		g.mFanErr.With(peer).Inc()
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		g.mFanErr.With(peer).Inc()
		return nil, resp.Header, err
	}
	if resp.StatusCode/100 != 2 {
		g.mFanErr.With(peer).Inc()
		var envelope struct {
			Error string `json:"error"`
		}
		json.Unmarshal(out, &envelope)
		return out, resp.Header, &shardStatusError{
			peer: peer, status: resp.StatusCode, message: envelope.Error,
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return out, resp.Header, nil
}

// ---------------------------------------------------------------------
// Owner-routed relay: /v1/predict, /v1/sweep, /v1/advise.

// relay serves a route whose body names one model key by proxying it to
// the replica owning that (system, program) on the ring, walking the
// ring order past replicas that fail at the transport — any replica
// serves any key bit-identically, so failover costs at most a campaign
// on the fallback shard. The answer (document or NDJSON stream, or the
// shard's own error answer) is relayed verbatim with its Content-Type,
// Retry-After and X-Hybridperf-* headers, so it is byte-identical to a
// single daemon's. Sweeps take this path too: a warm sweep evaluates in
// tens of microseconds, so splitting one across shards costs the gateway
// more CPU than the parallel evaluation saves.
func (g *Gateway) relay(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r, 1<<20)
		if !ok {
			return
		}
		// Only the routing key is read here. A body that does not decode
		// routes by whatever it yields; the replica that answers rejects it
		// with the 400 any replica would give, and that is relayed.
		var key struct {
			System  string `json:"system"`
			Program string `json:"program"`
		}
		_ = json.Unmarshal(body, &key)
		stream := wantStream(r)
		var errs []string
		for _, peer := range g.ring.Order(cluster.ModelKey(key.System, key.Program)) {
			out, hdr, err := g.post(r, peer, route, body, stream)
			status := http.StatusOK
			var httpErr *shardStatusError
			switch {
			case errors.As(err, &httpErr):
				// A shard that produced its own HTTP answer would answer
				// every peer's identical computation the same way: relay it
				// instead of burning failover hops.
				status = httpErr.status
			case err != nil:
				errs = append(errs, err.Error())
				continue
			default:
				g.countRelayed(route, hdr)
			}
			for k, v := range hdr {
				if k == "Content-Type" || k == "Retry-After" || strings.HasPrefix(k, "X-Hybridperf-") {
					w.Header()[k] = v
				}
			}
			w.WriteHeader(status)
			w.Write(out)
			return
		}
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no shard could serve the request: %s", strings.Join(errs, "; "))
	}
}

// handleSystems proxies the capability document from the first live
// shard — it is identical on every replica (same binary, same catalogue).
func (g *Gateway) handleSystems(w http.ResponseWriter, r *http.Request) {
	for _, peer := range g.peers {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, peer+"/v1/systems", nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			g.mFanErr.With(peer).Inc()
			continue
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			g.mFanErr.With(peer).Inc()
			continue
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			w.Header().Set("ETag", etag)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "no shard reachable")
}

// ---------------------------------------------------------------------
// /v1/batch fan-out.

// shardResult is one result of a shard's batch answer: the fragment
// verbatim, plus the members the merge reads, sliced out of it.
type shardResult struct {
	frag            []byte
	system, program []byte
	timeS, energyJ  float64
}

// compareGroup orders results by (system, program), the leading keys of
// the replicas' canonical tuple order.
func compareGroup(a, b shardResult) int {
	if c := bytes.Compare(a.system, b.system); c != 0 {
		return c
	}
	return bytes.Compare(a.program, b.program)
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeStrict(w, r, &req, maxBatchBodyBytes) {
		return
	}
	if len(req.Tuples) == 0 {
		httpError(w, http.StatusBadRequest, "batch carries no tuples")
		return
	}
	if len(req.Tuples) > maxBatchTuples {
		httpError(w, http.StatusBadRequest, "batch carries %d tuples, limit %d", len(req.Tuples), maxBatchTuples)
		return
	}
	class := req.Class
	if class == "" {
		class = string(workload.ClassA)
	}
	// Validate each (system, program) at its first tuple, mirroring the
	// shards' checks — a garbage tuple fails here with the same 400 a
	// single daemon would produce, without touching the cluster — and
	// partition by owning shard: every tuple of one group lands on the
	// replica that owns (has, or will characterise and keep) that model.
	owners := map[[2]string]string{}
	byOwner := map[string][]batchTuple{}
	for i, t := range req.Tuples {
		pair := [2]string{t.System, t.Program}
		owner, seen := owners[pair]
		if !seen {
			if _, err := machine.ByName(t.System); err != nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown system %q", i, t.System)
				return
			}
			spec, err := workload.ByName(t.Program)
			if err != nil {
				httpError(w, http.StatusBadRequest, "tuple %d: unknown program %q", i, t.Program)
				return
			}
			if _, err := spec.Iterations(workload.Class(class)); err != nil {
				httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
				return
			}
			owner = g.ring.Owner(cluster.ModelKey(t.System, t.Program))
			owners[pair] = owner
		}
		byOwner[owner] = append(byOwner[owner], t)
	}

	type shardOut struct {
		peer    string
		results []shardResult
		err     error
	}
	outs := make([]shardOut, 0, len(byOwner))
	for owner := range byOwner {
		outs = append(outs, shardOut{peer: owner})
	}
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(o *shardOut) {
			defer wg.Done()
			sub := mustJSON(batchRequest{Class: req.Class, Engine: req.Engine, Workers: req.Workers, Tuples: byOwner[o.peer]})
			raw, _, err := g.post(r, o.peer, "/v1/batch", sub, true)
			if err == nil {
				if o.results, err = parseShardBatch(raw); err != nil {
					err = fmt.Errorf("shard %s: unparseable answer: %w", o.peer, err)
				}
			}
			o.err = err
		}(&outs[i])
	}
	wg.Wait()

	for _, o := range outs {
		if relayClientError(w, o.err) {
			return
		}
	}
	var merged []shardResult
	var shardErrs []shardError
	var failures []error
	for _, o := range outs {
		if o.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "batch sub-request failed",
				slog.String("peer", o.peer), slog.Any("err", o.err))
			shardErrs = append(shardErrs, shardError{Shard: o.peer, Error: o.err.Error(), Tuples: len(byOwner[o.peer])})
			failures = append(failures, o.err)
			continue
		}
		merged = append(merged, o.results...)
	}
	sort.Slice(shardErrs, func(i, j int) bool { return shardErrs[i].Shard < shardErrs[j].Shard })
	if len(merged) == 0 && len(shardErrs) > 0 {
		w.Header().Set("Retry-After", retryAfterHint(failures))
		httpError(w, http.StatusServiceUnavailable, "all owning shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	// Each (system, program) group lives entirely on its owner, and every
	// shard answers in canonical order, so a stable sort by group yields
	// the exact order one daemon's canonicalisation produces — which is
	// what makes the merged answer byte-identical to a single daemon's.
	slices.SortStableFunc(merged, compareGroup)
	groups := 0
	frags := make([][]byte, len(merged))
	var simS, energyJ float64
	for i, m := range merged {
		if i == 0 || compareGroup(m, merged[i-1]) != 0 {
			groups++
		}
		frags[i] = m.frag
		simS += m.timeS
		energyJ += m.energyJ
	}
	sum := mustJSON(struct {
		Class       string       `json:"class"`
		Count       int          `json:"count"`
		Groups      int          `json:"groups"`
		ShardErrors []shardError `json:"shard_errors,omitempty"`
	}{class, len(merged), groups, shardErrs})
	g.applyAttribution(w, "/v1/batch", len(merged), simS, energyJ)
	writeBatch(w, r, sum, frags)
}

// relayClientError relays a shard's 4xx answer as this request's answer
// and reports whether it did. A 4xx means the request itself is bad
// (invalid tuple, bad class, shed by admission control) — every shard
// would say the same, so annotating it as a degraded shard would turn a
// caller bug into a silent partial result.
func relayClientError(w http.ResponseWriter, err error) bool {
	var he *shardStatusError
	if !errors.As(err, &he) || he.status < 400 || he.status >= 500 {
		return false
	}
	if he.status == http.StatusTooManyRequests {
		// The shard's own backoff hint wins; "1" only when it sent none.
		ra := he.retryAfter
		if ra == "" {
			ra = "1"
		}
		w.Header().Set("Retry-After", ra)
	}
	if he.message != "" {
		httpError(w, he.status, "%s", he.message)
	} else {
		httpError(w, he.status, "%s", he.Error())
	}
	return true
}

func joinShardErrors(errs []shardError) string {
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = e.Error
	}
	return strings.Join(parts, "; ")
}

// retryAfterHint returns the first shard-provided Retry-After among errs,
// falling back to "1" when no shard offered its own backoff.
func retryAfterHint(errs []error) string {
	for _, err := range errs {
		var he *shardStatusError
		if errors.As(err, &he) && he.retryAfter != "" {
			return he.retryAfter
		}
	}
	return "1"
}
