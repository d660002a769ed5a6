// Package gateway implements hybridperf-gw: a stateless fan-out front
// for a sharded hybridperfd cluster. The gateway owns no models — it
// routes point requests (/v1/predict, /v1/advise) to the replica owning
// their (system, program) key on the same consistent-hash ring the
// replicas use, splits /v1/batch bodies into one sub-batch per owning
// shard, and partitions a /v1/sweep configuration space across every
// shard so the full-space evaluation parallelises over the cluster. Shard answers are merged back in the
// replicas' canonical order (and sweep frontiers recomputed with the same
// pareto code), so a response through the gateway is byte-identical to
// the same request served by a single daemon.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridperf/internal/cluster"
	"hybridperf/internal/core"
	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/telemetry"
	"hybridperf/internal/workload"
)

// forwardedHeader mirrors the replicas' loop-prevention header. The
// gateway sets it on every sub-request: the gateway already routed by
// ownership (or is deliberately spreading a sweep), so the receiving
// shard must serve locally instead of adding a second hop.
const forwardedHeader = "X-Hybridperf-Forwarded"

// maxSweepNodes and the batch limits mirror the replicas' request bounds,
// so the gateway rejects what every shard would reject — without a
// round trip.
const (
	maxSweepNodes     = 1024
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
	// that arrive without a traceparent (see SetTraceSample); traces
	// retains this hop's completed payloads for the stitch endpoint.
	sample float64
	traces *telemetry.TraceStore

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
	g.traces = telemetry.NewTraceStore(0)
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
	mux.HandleFunc("POST /v1/predict", g.observe("/v1/predict", g.handlePredict))
	mux.HandleFunc("POST /v1/batch", g.observe("/v1/batch", g.handleBatch))
	mux.HandleFunc("POST /v1/sweep", g.observe("/v1/sweep", g.handleSweep))
	mux.HandleFunc("POST /v1/advise", g.observe("/v1/advise", g.handleAdvise))
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
// record a span tree whose completed payload lands in the gateway's own
// trace store, one stitch source among the shards'.
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
		var rt *telemetry.RequestTrace
		if tc.Sampled {
			rt = telemetry.NewRequestTrace(tc)
			ctx = telemetry.WithRequestTrace(ctx, rt)
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		end := time.Now()
		if rt != nil {
			rt.AddSpan("http", r.Method+" "+route, start, end)
			g.traces.Put(rt.Payload("gateway"))
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
// Wire mirrors of the replicas' request/response shapes. These must stay
// field-for-field identical to internal/telemetry's (tags and order), so
// gateway-built responses are byte-compatible with shard-built ones.

type configJSON struct {
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

type predictionJSON struct {
	Config  configJSON `json:"config"`
	TimeS   float64    `json:"time_s"`
	EnergyJ float64    `json:"energy_j"`
	PowerW  float64    `json:"power_w"`
	UCR     float64    `json:"ucr"`
}

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

type sweepRequest struct {
	System    string  `json:"system"`
	Program   string  `json:"program"`
	Class     string  `json:"class"`
	MaxNodes  int     `json:"max_nodes"`
	Pow2      bool    `json:"pow2"`
	Workers   int     `json:"workers"`
	DeadlineS float64 `json:"deadline_s"`
	BudgetJ   float64 `json:"budget_j"`
	Engine    string  `json:"engine"` // relayed: shards validate it
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

// decodeStrict mirrors the replicas' body handling: bounded, unknown
// fields rejected, trailing data rejected.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
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
// a partial result explains the failure, not just names it.
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
	}
	endFan := telemetry.RequestTraceFrom(r.Context()).Span("gateway", "fanout "+peer+path)
	defer endFan()
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
		// The body rides along so a caller can relay the shard's own error
		// envelope verbatim (handlePredict does).
		return out, resp.Header, &shardStatusError{
			peer: peer, status: resp.StatusCode, message: envelope.Error,
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return out, resp.Header, nil
}

// handlePredict proxies a point request to the owner of its model key,
// falling through the ring-walk order when the owner is down — any
// replica serves any key bit-identically, so failover costs at most a
// campaign on the fallback shard.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req struct {
		System  string  `json:"system"`
		Program string  `json:"program"`
		Class   string  `json:"class"`
		Nodes   int     `json:"nodes"`
		Cores   int     `json:"cores"`
		FreqGHz float64 `json:"freq_ghz"`
	}
	body := new(bytes.Buffer)
	tee := io.TeeReader(http.MaxBytesReader(w, r.Body, 1<<20), body)
	if err := json.NewDecoder(tee).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	io.Copy(io.Discard, tee) // finish teeing the raw body
	var errs []string
	for _, peer := range g.ring.Order(cluster.ModelKey(req.System, req.Program)) {
		out, _, err := g.post(r, peer, "/v1/predict", body.Bytes(), false)
		if err == nil {
			var pred struct {
				TimeS   float64 `json:"time_s"`
				EnergyJ float64 `json:"energy_j"`
			}
			if json.Unmarshal(out, &pred) == nil {
				g.applyAttribution(w, "/v1/predict", 1, pred.TimeS, pred.EnergyJ)
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(out)
			return
		}
		errs = append(errs, err.Error())
		// A shard that produced its own HTTP answer (4xx/5xx) would answer
		// every peer's identical computation the same way: relay its
		// status — and its backoff hint — instead of burning failover hops.
		var httpErr *shardStatusError
		if errors.As(err, &httpErr) {
			if httpErr.retryAfter != "" {
				w.Header().Set("Retry-After", httpErr.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(httpErr.status)
			w.Write(out)
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable, "no shard could serve the request: %s", strings.Join(errs, "; "))
}

// handleAdvise proxies an advisory request to the owner of its model key,
// exactly like handlePredict: the answer is relayed verbatim (document or
// NDJSON stream), so a response through the gateway is byte-identical to
// the owning shard's. The shard's cost-attribution headers are re-stamped
// and aggregated into the gateway's per-route series.
func (g *Gateway) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req struct {
		System  string `json:"system"`
		Program string `json:"program"`
	}
	body := new(bytes.Buffer)
	tee := io.TeeReader(http.MaxBytesReader(w, r.Body, 1<<20), body)
	if err := json.NewDecoder(tee).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	io.Copy(io.Discard, tee) // finish teeing the raw body
	stream := wantStream(r)
	var errs []string
	for _, peer := range g.ring.Order(cluster.ModelKey(req.System, req.Program)) {
		out, hdr, err := g.post(r, peer, "/v1/advise", body.Bytes(), stream)
		if err == nil {
			if preds, e := strconv.Atoi(hdr.Get(telemetry.PredictionsHeader)); e == nil {
				simS, _ := strconv.ParseFloat(hdr.Get(telemetry.SimSecondsHeader), 64)
				energyJ, _ := strconv.ParseFloat(hdr.Get(telemetry.EnergyHeader), 64)
				g.applyAttribution(w, "/v1/advise", preds, simS, energyJ)
			}
			ct := hdr.Get("Content-Type")
			if ct == "" {
				ct = "application/json"
			}
			w.Header().Set("Content-Type", ct)
			w.Write(out)
			return
		}
		errs = append(errs, err.Error())
		var httpErr *shardStatusError
		if errors.As(err, &httpErr) {
			if httpErr.retryAfter != "" {
				w.Header().Set("Retry-After", httpErr.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(httpErr.status)
			w.Write(out)
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable, "no shard could serve the request: %s", strings.Join(errs, "; "))
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

// batchShardResponse is the slice of a shard's batch answer the gateway
// consumes: the result fragments verbatim (bytes preserved for the
// merge) plus the parsed coordinates needed to order them.
type batchShardResponse struct {
	Results []json.RawMessage `json:"results"`
	Class   string            `json:"class"`
	Count   int               `json:"count"`
	Groups  int               `json:"groups"`
}

// mergedResult pairs one shard-rendered result fragment with its parsed
// sort key.
type mergedResult struct {
	raw     json.RawMessage
	system  string
	program string
	nodes   int
	cores   int
	freqGHz float64
	timeS   float64
	energyJ float64
}

func (a mergedResult) less(b mergedResult) bool {
	if a.system != b.system {
		return a.system < b.system
	}
	if a.program != b.program {
		return a.program < b.program
	}
	if a.nodes != b.nodes {
		return a.nodes < b.nodes
	}
	if a.cores != b.cores {
		return a.cores < b.cores
	}
	return a.freqGHz < b.freqGHz
}

func parseResults(raw []json.RawMessage) ([]mergedResult, error) {
	out := make([]mergedResult, len(raw))
	for i, frag := range raw {
		var meta struct {
			System  string `json:"system"`
			Program string `json:"program"`
			Config  struct {
				Nodes   int     `json:"nodes"`
				Cores   int     `json:"cores"`
				FreqGHz float64 `json:"freq_ghz"`
			} `json:"config"`
			TimeS   float64 `json:"time_s"`
			EnergyJ float64 `json:"energy_j"`
		}
		if err := json.Unmarshal(frag, &meta); err != nil {
			return nil, fmt.Errorf("result %d: %w", i, err)
		}
		out[i] = mergedResult{
			raw: frag, system: meta.System, program: meta.Program,
			nodes: meta.Config.Nodes, cores: meta.Config.Cores, freqGHz: meta.Config.FreqGHz,
			timeS: meta.TimeS, energyJ: meta.EnergyJ,
		}
	}
	return out, nil
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
	// Validate coordinates before fanning out, mirroring the shards'
	// checks: a garbage tuple fails here with the same 400 a single
	// daemon would produce, without touching the cluster.
	for i, t := range req.Tuples {
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
	}

	// Partition by owning shard: every tuple of one (system, program)
	// group lands on the replica that owns — and has, or will
	// characterise and keep — that model.
	byOwner := map[string][]batchTuple{}
	for _, t := range req.Tuples {
		owner := g.ring.Owner(cluster.ModelKey(t.System, t.Program))
		byOwner[owner] = append(byOwner[owner], t)
	}

	type shardOut struct {
		peer   string
		tuples int
		resp   *batchShardResponse
		err    error
	}
	outs := make([]shardOut, 0, len(byOwner))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for owner, tuples := range byOwner {
		wg.Add(1)
		go func(owner string, tuples []batchTuple) {
			defer wg.Done()
			sub := mustJSON(batchRequest{Class: req.Class, Engine: req.Engine, Workers: req.Workers, Tuples: tuples})
			out := shardOut{peer: owner, tuples: len(tuples)}
			raw, _, err := g.post(r, owner, "/v1/batch", sub, false)
			if err == nil {
				var parsed batchShardResponse
				if uerr := json.Unmarshal(raw, &parsed); uerr != nil {
					err = fmt.Errorf("shard %s: unparseable answer: %w", owner, uerr)
				} else {
					out.resp = &parsed
				}
			}
			out.err = err
			mu.Lock()
			outs = append(outs, out)
			mu.Unlock()
		}(owner, tuples)
	}
	wg.Wait()

	var merged []mergedResult
	var shardErrs []shardError
	for _, o := range outs {
		if relayClientError(w, o.err) {
			return
		}
	}
	for _, o := range outs {
		if o.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "batch sub-request failed",
				slog.String("peer", o.peer), slog.Any("err", o.err))
			shardErrs = append(shardErrs, shardError{Shard: o.peer, Error: o.err.Error(), Tuples: o.tuples})
			continue
		}
		res, err := parseResults(o.resp.Results)
		if err != nil {
			shardErrs = append(shardErrs, shardError{Shard: o.peer, Error: err.Error(), Tuples: o.tuples})
			continue
		}
		merged = append(merged, res...)
	}
	if len(merged) == 0 && len(shardErrs) > 0 {
		var failures []error
		for _, o := range outs {
			if o.err != nil {
				failures = append(failures, o.err)
			}
		}
		w.Header().Set("Retry-After", retryAfterHint(failures))
		httpError(w, http.StatusServiceUnavailable, "all owning shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	// Canonical order across shards — the exact order one daemon's
	// canonicalizeTuples would have produced, which is what makes the
	// merged document byte-identical to a single-instance answer.
	sort.Slice(merged, func(i, j int) bool { return merged[i].less(merged[j]) })
	sortShardErrors(shardErrs)

	groups := 0
	for i := range merged {
		if i == 0 || merged[i].system != merged[i-1].system || merged[i].program != merged[i-1].program {
			groups++
		}
	}
	frags := make([][]byte, len(merged))
	var simS, energyJ float64
	for i, m := range merged {
		frags[i] = m.raw
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
	writeSpliced(w, r, sum, "results", "result", frags)
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

func sortShardErrors(errs []shardError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Shard < errs[j].Shard })
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

// ---------------------------------------------------------------------
// /v1/sweep fan-out.

// sweepSummary mirrors the replicas' sweep header fields, with the
// gateway's partial-result annotation appended (absent on full answers,
// so complete sweeps stay byte-identical to a single daemon's).
type sweepSummary struct {
	System      string          `json:"system"`
	Program     string          `json:"program"`
	Class       string          `json:"class"`
	Configs     int             `json:"configs"`
	Points      int             `json:"frontier_points"`
	Deadline    *predictionJSON `json:"min_energy_within_deadline,omitempty"`
	Budget      *predictionJSON `json:"min_time_within_budget,omitempty"`
	ShardErrors []shardError    `json:"shard_errors,omitempty"`
}

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeStrict(w, r, &req, 1<<20) {
		return
	}
	prof, err := machine.ByName(req.System)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unknown system %q", req.System)
		return
	}
	spec, err := workload.ByName(req.Program)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unknown program %q", req.Program)
		return
	}
	class := req.Class
	if class == "" {
		class = string(workload.ClassA)
	}
	if _, err := spec.Iterations(workload.Class(class)); err != nil {
		httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
		return
	}
	maxNodes := req.MaxNodes
	if maxNodes == 0 {
		maxNodes = prof.MaxNodes
	}
	if maxNodes < 1 || maxNodes > maxSweepNodes {
		httpError(w, http.StatusBadRequest, "max_nodes %d out of range [1,%d]", req.MaxNodes, maxSweepNodes)
		return
	}

	// Enumerate the full configuration space exactly as one daemon would
	// — pareto.Space's order is the canonical response order — and cut it
	// into one contiguous chunk per shard. A sweep is a single model key,
	// so this deliberately ignores ownership: the win is evaluating N
	// chunks in parallel, at the cost of each shard characterising (once,
	// warm-loadable from a shared model store) the swept model.
	var nodes []int
	if req.Pow2 {
		nodes = pareto.PowersOfTwo(maxNodes)
	} else {
		nodes = pareto.Range(1, maxNodes)
	}
	cfgs := pareto.Space(nodes, prof.CoresPerNode, prof.Frequencies)
	chunks := chunkConfigs(cfgs, len(g.peers))

	type chunkOut struct {
		idx  int
		peer string
		pts  []pareto.Point
		wire []predictionJSON
		err  error
	}
	outs := make([]chunkOut, len(chunks))
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, chunk []machine.Config) {
			defer wg.Done()
			peer := g.peers[i%len(g.peers)]
			outs[i] = chunkOut{idx: i, peer: peer}
			pts, wire, err := g.evalChunk(r, peer, req, class, chunk)
			outs[i].pts, outs[i].wire, outs[i].err = pts, wire, err
		}(i, chunk)
	}
	wg.Wait()

	var points []pareto.Point
	wireByCfg := make(map[machine.Config]predictionJSON, len(cfgs))
	var shardErrs []shardError
	evaluated := 0
	for _, o := range outs {
		if relayClientError(w, o.err) {
			return
		}
	}
	for _, o := range outs {
		if o.err != nil {
			g.log.LogAttrs(r.Context(), slog.LevelWarn, "sweep chunk failed",
				slog.String("peer", o.peer), slog.Any("err", o.err))
			shardErrs = append(shardErrs, shardError{Shard: o.peer, Error: o.err.Error(), Tuples: len(chunks[o.idx])})
			continue
		}
		points = append(points, o.pts...)
		for k, p := range o.pts {
			wireByCfg[p.Cfg] = o.wire[k]
		}
		evaluated += len(o.pts)
	}
	if evaluated == 0 && len(shardErrs) > 0 {
		var failures []error
		for _, o := range outs {
			if o.err != nil {
				failures = append(failures, o.err)
			}
		}
		w.Header().Set("Retry-After", retryAfterHint(failures))
		httpError(w, http.StatusServiceUnavailable, "all shards failed: %s", joinShardErrors(shardErrs))
		return
	}
	sortShardErrors(shardErrs)

	// The merge proper: one frontier over every shard's points, computed
	// by the same pareto code a single daemon runs, over the same values
	// (floats survive the JSON hop bit-exactly) in the same enumeration
	// order — so the merged frontier is the frontier.
	front := pareto.Frontier(points)
	sum := sweepSummary{
		System: req.System, Program: req.Program, Class: class,
		Configs: evaluated, Points: len(front), ShardErrors: shardErrs,
	}
	if req.DeadlineS > 0 {
		if p, ok := pareto.MinEnergyWithinDeadline(points, req.DeadlineS); ok {
			pj := wireByCfg[p.Cfg]
			sum.Deadline = &pj
		}
	}
	if req.BudgetJ > 0 {
		if p, ok := pareto.MinTimeWithinBudget(points, req.BudgetJ); ok {
			pj := wireByCfg[p.Cfg]
			sum.Budget = &pj
		}
	}
	frags := make([][]byte, len(front))
	var simS, energyJ float64
	for i, p := range front {
		pj := wireByCfg[p.Cfg]
		frags[i] = mustJSON(pj)
		simS += pj.TimeS
		energyJ += pj.EnergyJ
	}
	g.applyAttribution(w, "/v1/sweep", len(front), simS, energyJ)
	writeSpliced(w, r, mustJSON(sum), "frontier", "point", frags)
}

// evalChunk evaluates one contiguous slice of the sweep space on one
// shard via /v1/batch, returning the points (exact catalogue frequencies,
// wire-parsed objectives) in chunk order plus their wire forms for
// rendering.
func (g *Gateway) evalChunk(r *http.Request, peer string, req sweepRequest, class string, chunk []machine.Config) ([]pareto.Point, []predictionJSON, error) {
	tuples := make([]batchTuple, len(chunk))
	for i, cfg := range chunk {
		tuples[i] = batchTuple{
			System: req.System, Program: req.Program,
			Nodes: cfg.Nodes, Cores: cfg.Cores, FreqGHz: cfg.Freq / 1e9,
		}
	}
	sub := mustJSON(batchRequest{Class: class, Engine: req.Engine, Workers: req.Workers, Tuples: tuples})
	raw, _, err := g.post(r, peer, "/v1/batch", sub, false)
	if err != nil {
		return nil, nil, err
	}
	var parsed struct {
		Results []predictionJSON `json:"results"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, nil, fmt.Errorf("shard %s: unparseable answer: %w", peer, err)
	}
	if len(parsed.Results) != len(chunk) {
		return nil, nil, fmt.Errorf("shard %s: %d results for %d configs", peer, len(parsed.Results), len(chunk))
	}
	// A chunk enumerates distinct configs in canonical order, so the
	// shard's canonical response order is the chunk order: zip by index.
	pts := make([]pareto.Point, len(chunk))
	for i, cfg := range chunk {
		res := parsed.Results[i]
		pts[i] = pareto.Point{Cfg: cfg, Pred: core.Prediction{
			Cfg: cfg, T: res.TimeS, E: res.EnergyJ, UCR: res.UCR,
		}}
	}
	return pts, parsed.Results, nil
}

// chunkConfigs cuts cfgs into up to n contiguous, near-equal chunks
// (never empty ones).
func chunkConfigs(cfgs []machine.Config, n int) [][]machine.Config {
	if n > len(cfgs) {
		n = len(cfgs)
	}
	if n < 1 {
		n = 1
	}
	chunks := make([][]machine.Config, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(cfgs)/n, (i+1)*len(cfgs)/n
		if lo < hi {
			chunks = append(chunks, cfgs[lo:hi])
		}
	}
	return chunks
}

// ---------------------------------------------------------------------
// Response rendering — the same splice shapes the replicas produce.

// writeSpliced writes the merged answer as the canonical JSON document
// or, when the client asked, as NDJSON lines (one item per line, summary
// last) — mirroring the replicas' spliceResponse shapes byte-for-byte.
func writeSpliced(w http.ResponseWriter, r *http.Request, sum []byte, listKey, itemKey string, frags [][]byte) {
	if !wantStream(r) {
		w.Header().Set("Content-Type", "application/json")
		var body bytes.Buffer
		body.Write(sum[:len(sum)-1])
		body.WriteString(`,"` + listKey + `":[`)
		for i, f := range frags {
			if i > 0 {
				body.WriteByte(',')
			}
			body.Write(f)
		}
		body.WriteString("]}\n")
		w.Write(body.Bytes())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i, f := range frags {
		fmt.Fprintf(w, `{"type":%q,%q:%s}`+"\n", itemKey, itemKey, f)
		if flusher != nil && (i+1)%32 == 0 {
			flusher.Flush()
		}
	}
	w.Write([]byte(`{"type":"summary",`))
	w.Write(sum[1:])
	w.Write([]byte{'\n'})
	if flusher != nil {
		flusher.Flush()
	}
}
