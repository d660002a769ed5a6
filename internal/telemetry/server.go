package telemetry

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridperf/internal/characterize"
	"hybridperf/internal/cluster"
	"hybridperf/internal/core"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/modelstore"
	"hybridperf/internal/pareto"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

// maxSweepNodes bounds /v1/sweep requests: the model happily extrapolates
// to thousands of nodes, but an unbounded max_nodes would let one request
// allocate an arbitrarily large configuration space.
const maxSweepNodes = 1024

// Config tunes the prediction service.
type Config struct {
	// Workers is the characterisation/sweep parallelism (<= 0 means
	// GOMAXPROCS).
	Workers int
	// Seed seeds every characterisation campaign, so two daemons with the
	// same seed serve bit-identical predictions. Zero is a valid seed.
	Seed int64
	// Logger receives the structured request log (nil = slog.Default()).
	Logger *slog.Logger
	// SpanCapacity bounds the span flight recorder (<= 0 means 4096).
	SpanCapacity int
	// MaxCampaigns bounds the heavy work admitted concurrently —
	// characterisation campaigns and sweep evaluations (<= 0 means 4).
	// Excess requests are shed with 429 + Retry-After instead of
	// queueing, so saturation surfaces at the client immediately rather
	// than as unbounded latency.
	MaxCampaigns int
	// RequestTimeout, when > 0, bounds every instrumented request with
	// context.WithTimeout; expiry cancels in-flight characterisations
	// and sweeps mid-simulation and the request fails 503 with
	// Retry-After. /debug/trace is exempt (it legitimately blocks for
	// its recording window). Zero disables the per-request deadline.
	RequestTimeout time.Duration
	// AdviseMaxSlowdown is the default makespan tolerance for /v1/advise
	// requests that omit max_slowdown_pct, as a fraction (<= 0 means
	// 0.05). Must be < 1; a larger value panics in NewServer.
	AdviseMaxSlowdown float64
	// ResponseCache, when > 0, enables the /v1/sweep + /v1/batch response
	// cache with that many entries (LRU) and collapses identical
	// in-flight requests onto one computation. Zero disables the cache
	// entirely, including the singleflight collapse.
	ResponseCache int
	// ResponseCacheTTL bounds how long a cached response is served before
	// it is recomputed; zero means entries never expire. Responses are
	// deterministic for a fixed seed, so the TTL is about bounding memory
	// held by stale keys, not staleness of the data.
	ResponseCacheTTL time.Duration
	// TraceSample is the fraction of locally originated requests that
	// record a request-scoped span tree (0 = never, the default; 1 =
	// always). Requests arriving with a traceparent header inherit the
	// sender's sampling decision instead — the edge that minted the trace
	// controls the whole chain. Sampling is purely observational: sampled
	// and unsampled responses are byte-identical.
	TraceSample float64
	// ModelStore, when non-nil, persists characterisation summaries: every
	// successful campaign writes a snapshot, and NewServer warm-loads every
	// snapshot matching this server's seed and model version — so a
	// restarted (or newly added) replica answers its first predict without
	// re-running campaigns, bit-identical to the cold path. Snapshot
	// problems are never fatal: corrupt or stale entries are skipped and
	// counted on hybridperf_model_store_load_errors_total.
	ModelStore *modelstore.Store
}

// Server is the hybridperfd prediction service: models characterised
// lazily per (system, program) pair and cached for the process lifetime,
// wrapped in the telemetry stack (exposition, request logging, spans,
// pprof). Create with NewServer, mount with Handler.
type Server struct {
	cfg         Config
	log         *slog.Logger
	reg         *Registry
	advSlowdown float64         // resolved default /v1/advise makespan tolerance
	engine      *metrics.Engine // engine tallies published by every finished simulation
	spans       *Spans
	start       time.Time
	ready       atomic.Bool

	// attrib pre-resolves the per-route cost-attribution series so the
	// serving path records them without a label lookup.
	attrib map[string]attribSeries

	mu     sync.Mutex
	models map[modelKey]*modelEntry

	// sem is the admission-control semaphore: one slot per concurrently
	// admitted characterisation campaign or sweep/batch evaluation.
	sem chan struct{}

	// respCache caches rendered /v1/sweep and /v1/batch responses by
	// canonicalised request key; nil when Config.ResponseCache <= 0.
	respCache *responseCache

	// batchMemo short-circuits exact-byte repeats of /v1/batch bodies to
	// their canonical cache key, skipping decode + validation on the hit
	// path; nil whenever respCache is.
	batchMemo *bodyMemo

	// systemsOnce renders the static /v1/systems document (and its ETag)
	// once per process.
	systemsOnce sync.Once
	systemsBody []byte
	systemsETag string

	// Cluster state (nil/empty when single-instance): the consistent-hash
	// ring over the static peer list, this replica's own peer name, and
	// the client used to forward requests for keys another replica owns.
	// Set once by SetCluster before serving; read-only afterwards.
	ring      *cluster.Ring
	self      string
	fwdClient *http.Client

	mReq       *CounterVec
	mDur       *HistogramVec
	mInflight  *GaugeVec
	mPanics    *CounterVec
	mModels    *GaugeVec
	mChar      *CounterVec
	mRejected  *CounterVec
	mCancelled *CounterVec

	// Advisory-plane series, by governor policy.
	mAdviseEvals *CounterVec
	mAdviseRec   *CounterVec
	mAdviseSaved *FloatCounterVec

	// Model store series (nil without a store).
	mStoreLoads    *Counter
	mStoreLoadErrs *Counter
	mStoreWrites   *Counter

	// Cluster series (nil until SetCluster).
	mForwards    *CounterVec
	mForwardErrs *CounterVec

	// charTestHook, when non-nil (tests only), runs inside the
	// characterisation critical section before the campaign, with the
	// request context; a non-nil error (or a panic) fails the campaign.
	charTestHook func(ctx context.Context, key modelKey) error
}

type modelKey struct{ system, program string }

// modelEntry caches one characterised model; once guarantees a single
// characterisation per key even under concurrent first requests. ready
// flips only after a completed, successful campaign — entries that never
// reach ready are evicted by Server.model so the next request retries
// instead of serving a poisoned cache slot forever.
type modelEntry struct {
	once  sync.Once
	ready atomic.Bool
	prof  *machine.Profile
	spec  *workload.Spec
	model *core.Model
	err   error
}

// NewServer builds the service. It starts not-ready: call SetReady(true)
// after any warm-up (or immediately) so /readyz flips to 200.
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	advSlowdown := cfg.AdviseMaxSlowdown
	if advSlowdown <= 0 {
		advSlowdown = 0.05
	}
	if advSlowdown >= 1 {
		panic(fmt.Sprintf("telemetry: Config.AdviseMaxSlowdown %g must be in (0,1)", cfg.AdviseMaxSlowdown))
	}
	s := &Server{
		cfg:    cfg,
		log:    log,
		reg:    NewRegistry(),
		engine: metrics.NewEngine(),
		spans:  NewSpans(cfg.SpanCapacity),
		start:  time.Now(),
		models: map[modelKey]*modelEntry{},
		sem:    make(chan struct{}, cfg.MaxCampaigns),
	}
	s.advSlowdown = advSlowdown
	s.mReq = s.reg.Counter("hybridperf_http_requests_total",
		"HTTP requests served, by route, method and status code.", "route", "method", "code")
	s.mDur = s.reg.Histogram("hybridperf_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", DefBuckets, "route")
	s.mInflight = s.reg.Gauge("hybridperf_http_requests_in_flight",
		"HTTP requests currently being served.")
	s.mPanics = s.reg.Counter("hybridperf_http_panics_total",
		"Handler panics recovered, by route.", "route")
	s.mModels = s.reg.Gauge("hybridperf_models_cached",
		"Characterised models held in the cache.")
	s.mChar = s.reg.Counter("hybridperf_model_characterizations_total",
		"Characterisation campaigns run, by system and program.", "system", "program")
	s.mRejected = s.reg.Counter("hybridperf_http_requests_rejected_total",
		"Requests shed by admission control, by route and reason.", "route", "reason")
	s.mCancelled = s.reg.Counter("hybridperf_http_requests_cancelled_total",
		"Requests whose context ended before completion, by route and reason (disconnect or timeout).", "route", "reason")
	// Cost attribution: every model-serving response reports how much
	// simulated work it carried; these aggregate the same numbers the
	// response headers expose. Series are pre-resolved here — routes are
	// static — so the hot path records them map-lookup cheap and
	// allocation free.
	mPreds := s.reg.Counter("hybridperf_predictions_served_total",
		"Predictions returned to clients, by route.", "route")
	mSimS := s.reg.FloatCounter("hybridperf_simulated_seconds_total",
		"Predicted application runtime (virtual seconds) summed over all served predictions, by route.", "route")
	mEnergy := s.reg.FloatCounter("hybridperf_predicted_energy_joules_total",
		"Predicted energy (joules) summed over all served predictions, by route.", "route")
	s.attrib = make(map[string]attribSeries, 4)
	for _, route := range []string{"/v1/predict", "/v1/batch", "/v1/sweep", "/v1/advise"} {
		s.attrib[route] = attribSeries{
			preds:  mPreds.With(route),
			simS:   mSimS.With(route),
			energy: mEnergy.With(route),
		}
	}
	// Advisory-plane accounting: per-policy governed evaluations, which
	// policy the advisor recommended, and the energy each policy would
	// have saved against the static baseline. Series exist from boot so
	// scrapes (and the serve-smoke diff) see explicit zeros.
	s.mAdviseEvals = s.reg.Counter("hybridperf_advise_evaluations_total",
		"Advisory policy evaluations, by governor policy (\"fixed\" is derived from the baseline run, not simulated).", "policy")
	s.mAdviseRec = s.reg.Counter("hybridperf_advise_recommended_total",
		"Advisory responses computed, by the policy they recommended.", "policy")
	s.mAdviseSaved = s.reg.FloatCounter("hybridperf_advise_energy_saved_joules_total",
		"Predicted energy saved vs the ungoverned static baseline, summed over advisory evaluations, by policy.", "policy")
	for _, p := range dvfs.Policies() {
		s.mAdviseEvals.With(p).Add(0)
		s.mAdviseRec.With(p).Add(0)
		s.mAdviseSaved.With(p).Add(0)
	}
	// In-flight starts existing so the gauge appears on the first scrape.
	s.mInflight.With().Set(0)
	s.mModels.With().Set(0)
	if cfg.ResponseCache > 0 {
		ctr := cacheCounters{
			hits: s.reg.Counter("hybridperf_response_cache_hits_total",
				"Requests served from the response cache.").With(),
			misses: s.reg.Counter("hybridperf_response_cache_misses_total",
				"Requests that computed (and stored) their response.").With(),
			evictions: s.reg.Counter("hybridperf_response_cache_evictions_total",
				"Response-cache entries dropped by LRU capacity pressure.").With(),
			expired: s.reg.Counter("hybridperf_response_cache_expired_total",
				"Response-cache entries dropped because they aged past the TTL.").With(),
			collapsed: s.reg.Counter("hybridperf_response_cache_collapsed_total",
				"Requests collapsed onto an identical in-flight computation (singleflight).").With(),
			entries: s.reg.Gauge("hybridperf_response_cache_entries",
				"Responses currently held in the cache.").With(),
		}
		ctr.entries.Set(0)
		s.respCache = newResponseCache(cfg.ResponseCache, cfg.ResponseCacheTTL, ctr)
		// Several syntactic variants (tuple order, defaulted fields) can
		// name one semantic entry, so the memo is sized a few times larger
		// than the cache it fronts.
		s.batchMemo = newBodyMemo(4 * cfg.ResponseCache)
	}
	if cfg.ModelStore != nil {
		s.mStoreLoads = s.reg.Counter("hybridperf_model_store_loads_total",
			"Characterisation snapshots loaded from the model store and adopted into the cache.").With()
		s.mStoreLoadErrs = s.reg.Counter("hybridperf_model_store_load_errors_total",
			"Model-store snapshots skipped at load: corrupt, truncated, stale-versioned or unresolvable.").With()
		s.mStoreWrites = s.reg.Counter("hybridperf_model_store_writes_total",
			"Characterisation snapshots written to the model store.").With()
		s.loadModelStore()
	}
	// Scrape-time families: latency quantiles interpolated from the route
	// histograms, then the engine-level counters.
	s.reg.OnScrape(func(w io.Writer) {
		const name = "hybridperf_http_request_duration_quantile_seconds"
		first := true
		s.mDur.Each(func(values []string, h *Histogram) {
			if first {
				fmt.Fprintf(w, "# HELP %s Request latency quantiles interpolated from the histogram, by route.\n# TYPE %s gauge\n", name, name)
				first = false
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				fmt.Fprintf(w, "%s{route=\"%s\",quantile=\"%s\"} %s\n",
					name, escapeLabel(values[0]), formatFloat(q), formatFloat(h.Quantile(q)))
			}
		})
		fmt.Fprintf(w, "# HELP hybridperf_uptime_seconds Seconds since the daemon started.\n"+
			"# TYPE hybridperf_uptime_seconds gauge\nhybridperf_uptime_seconds %s\n",
			formatFloat(time.Since(s.start).Seconds()))
		WriteEngineText(w, s.engine.Snapshot())
	})
	return s
}

// Warm characterises one (system, program) pair ahead of traffic, so a
// deployment can flip /readyz only after its hot models are cached. The
// warm-up runs the exact path traffic takes: the campaign feeds the shared
// engine counters and holds an admission slot — waiting for one rather
// than shedding, since warm-up has no client to 429 — so a daemon warming
// while already serving cannot oversubscribe the campaign budget it
// advertises.
func (s *Server) Warm(system, program string) error {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	_, err := s.model(context.Background(), modelKey{system: system, program: program}, true)
	return err
}

// SetReady flips the /readyz probe.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Registry exposes the server's metric registry (tests, extra collectors).
func (s *Server) Registry() *Registry { return s.reg }

// Engine exposes the shared engine counter set every simulation the
// server runs publishes its tally into when it ends; the counters do not
// move while a simulation is in flight.
func (s *Server) Engine() *metrics.Engine { return s.engine }

// Handler returns the full route table wrapped in the telemetry
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.handlePredict))
	mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/advise", s.instrument("/v1/advise", s.handleAdvise))
	mux.HandleFunc("GET /v1/systems", s.instrument("/v1/systems", s.handleSystems))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/trace", s.instrument("/debug/trace", s.handleDebugTrace))
	mux.HandleFunc("GET /debug/trace/{traceid}", s.instrument("/debug/trace/{traceid}", s.handleTraceByID))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		if s.ring != nil {
			fmt.Fprintf(w, "ready shard=%s peers=%d\n", s.self, len(s.ring.Peers()))
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// httpError is the structured JSON error envelope every 4xx/5xx carries.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"status": status,
	})
}

// errCharAborted marks a cache entry whose characterisation panicked
// inside its sync.Once: the Once is burnt (done, but no model and no
// error recorded), so waiters report a retryable failure instead of
// dereferencing a nil model.
var errCharAborted = errors.New("characterisation aborted before completing; retry")

// errSaturated reports a characterisation campaign shed because every
// admission slot was taken. Handlers map it to 429 + Retry-After.
var errSaturated = errors.New("admission slots saturated")

// model returns the cached model for (system, program), characterising it
// on first use with the server's collectors attached: every simulation
// publishes its tally into the shared engine counters and feeds the span
// recorder, and the campaign logs one line with its own engine counts.
// ctx cancels an in-flight characterisation mid-simulation
// (client disconnect, request timeout). Concurrent cold requests for one key collapse into a single
// campaign.
//
// Admission: unless the caller is already admitted (Warm runs before
// traffic; sweep handlers hold a slot for the whole request), the
// campaign leader claims an admission slot inside the once — so the
// semaphore counts actual campaigns, and concurrent cold requests for
// one key still collapse to a single characterisation instead of
// shedding each other. A saturated semaphore fails the campaign with
// errSaturated, the entry is evicted, and the next request retries.
//
// Cache hygiene: coordinates are validated before the cache is touched,
// so unknown system/program names never occupy map entries (a stream of
// garbage keys cannot grow s.models without bound), and an entry whose
// campaign failed, was cancelled or panicked is evicted before returning,
// so the next request for that key re-characterises instead of being
// poisoned for the process lifetime. Concurrent waiters on a failing
// campaign all observe its error; the first request after eviction
// retries fresh.
func (s *Server) model(ctx context.Context, key modelKey, admitted bool) (*modelEntry, error) {
	prof, err := machine.ByName(key.system)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(key.program)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	e, ok := s.models[key]
	if !ok {
		e = &modelEntry{}
		s.models[key] = e
	}
	s.mu.Unlock()

	// Runs on every exit — including a panic unwinding out of once.Do —
	// and evicts the entry unless the campaign completed successfully.
	// The pointer comparison keeps the eviction idempotent: a newer
	// retry entry under the same key is never clobbered.
	defer func() {
		if !e.ready.Load() {
			s.mu.Lock()
			if s.models[key] == e {
				delete(s.models, key)
			}
			s.mu.Unlock()
		}
	}()

	e.once.Do(func() {
		if !admitted {
			release, ok := s.acquire()
			if !ok {
				e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, errSaturated)
				return
			}
			defer release()
		}
		if s.charTestHook != nil {
			if err := s.charTestHook(ctx, key); err != nil {
				e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, err)
				return
			}
		}
		tc, _ := traceContextFor(ctx)
		// Only a sampled request asks the campaign to deliver its per-rank
		// phase timeline: the hook forces the engine to record events, so
		// leaving it nil keeps unsampled campaigns on the exact cold path.
		// The timeline rides on the characterisation span; the first
		// attach wins.
		var phases *phaseTimeline
		opts := characterize.Options{
			Seed:          s.cfg.Seed,
			Workers:       s.cfg.Workers,
			Ctx:           ctx,
			Metrics:       true,
			SharedMetrics: s.engine,
			Observe:       s.spans.Observer("exec"),
		}
		if tc.Sampled {
			opts.PhaseTrace = func(label string, events []trace.Event) {
				if phases == nil {
					phases = newPhaseTimeline(label, events)
				}
			}
		}
		start := time.Now()
		sum, err := characterize.Run(prof, spec, opts)
		if err != nil {
			e.err = fmt.Errorf("characterize %s/%s: %w", key.system, key.program, err)
			return
		}
		m, err := core.New(sum.Inputs, nil)
		if err != nil {
			e.err = fmt.Errorf("model %s/%s: %w", key.system, key.program, err)
			return
		}
		end := time.Now()
		s.spans.add(spanRec{cat: "model", name: "characterize " + key.system + "/" + key.program,
			start: start.UnixNano(), end: end.UnixNano(), tc: tc, phases: phases})
		annotate(ctx, slog.Uint64("engine_events", sum.Metrics.Events))
		s.mChar.With(key.system, key.program).Inc()
		s.mModels.With().Inc()
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "characterized",
			slog.String("system", key.system),
			slog.String("program", key.program),
			slog.Duration("duration", end.Sub(start)),
			slog.Uint64("engine_events", sum.Metrics.Events),
			slog.Uint64("mpi_messages", sum.Metrics.Messages))
		// Persist before publishing: if the process dies between here and
		// ready, the next boot warm-loads the snapshot instead of losing
		// the campaign.
		s.snapshotModel(key, sum)
		e.prof, e.spec, e.model = prof, spec, m
		e.ready.Store(true)
	})
	if e.err != nil {
		return nil, e.err
	}
	if !e.ready.Load() {
		return nil, fmt.Errorf("characterize %s/%s: %w", key.system, key.program, errCharAborted)
	}
	return e, nil
}

// acquire claims one admission slot, returning an idempotent release.
// ok is false when the semaphore is saturated; the caller sheds the
// request with reject.
func (s *Server) acquire() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-s.sem }) }, true
	default:
		return nil, false
	}
}

// reject sheds a request at the admission boundary: 429 with a
// Retry-After hint, counted per route.
func (s *Server) reject(w http.ResponseWriter, route string) {
	s.mRejected.With(route, "saturated").Inc()
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests,
		"saturated: %d characterisation/sweep campaigns already in flight; retry later", cap(s.sem))
}

// interrupted maps a cancelled or timed-out model/sweep error to a 503
// with Retry-After (the work was shed, not wrong; a retry may succeed)
// and reports whether it handled the error.
func interrupted(w http.ResponseWriter, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errCharAborted) || errors.Is(err, errFlightAborted) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "request interrupted: %v", err)
		return true
	}
	return false
}

// configJSON is the wire form of a machine.Config.
type configJSON struct {
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
}

// predictionJSON is the wire form of a core.Prediction.
type predictionJSON struct {
	Config  configJSON `json:"config"`
	TimeS   float64    `json:"time_s"`
	EnergyJ float64    `json:"energy_j"`
	PowerW  float64    `json:"power_w"`
	UCR     float64    `json:"ucr"`
}

func toPredictionJSON(p core.Prediction) predictionJSON {
	power := 0.0
	if p.T > 0 {
		power = p.E / p.T
	}
	return predictionJSON{
		Config:  configJSON{Nodes: p.Cfg.Nodes, Cores: p.Cfg.Cores, FreqGHz: p.Cfg.GHz()},
		TimeS:   p.T,
		EnergyJ: p.E,
		PowerW:  power,
		UCR:     p.UCR,
	}
}

// decodeJSON reads a bounded JSON body into v. Malformed bodies fail
// loudly and precisely: an oversized body is 413 (not a misleading
// "invalid JSON" 400), an unknown field is rejected instead of silently
// defaulting a typo'd knob, and trailing data after the first JSON value
// is an error rather than ignored.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSONMax(w, r, v, 1<<20)
}

// decodeJSONMax is decodeJSON with a per-route body cap (/v1/batch
// accepts larger bodies than the point endpoints).
func decodeJSONMax(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		httpError(w, http.StatusBadRequest,
			"invalid JSON body: trailing data after the request object")
		return false
	}
	return true
}

// readBodyMax reads the whole request body under a size cap, for
// handlers that need the raw bytes (the batch body memo) before
// decoding. The over-limit response matches decodeJSONMax's.
func readBodyMax(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// decodeJSONBytes is decodeJSONMax over an already-read body, with the
// same strictness (unknown fields and trailing data rejected) and the
// same error shapes.
func decodeJSONBytes(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		httpError(w, http.StatusBadRequest,
			"invalid JSON body: trailing data after the request object")
		return false
	}
	return true
}

// resolve validates the model coordinates shared by predict and sweep and
// returns the cached (characterising if needed) model entry plus the
// class iteration count. admitted marks callers already holding an
// admission slot (sweep), so a cold characterisation doesn't claim a
// second one. Unknown names and malformed classes are the caller's fault
// (400); a shed campaign is 429 + Retry-After; a cancelled, timed-out or
// aborted campaign is retryable (503 + Retry-After); a failed
// characterisation of valid coordinates is ours (500).
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, system, program, class string, admitted bool) (*modelEntry, workload.Class, int, bool) {
	if _, err := machine.ByName(system); err != nil {
		httpError(w, http.StatusBadRequest, "unknown system %q", system)
		return nil, "", 0, false
	}
	spec, err := workload.ByName(program)
	if err != nil {
		httpError(w, http.StatusBadRequest, "unknown program %q", program)
		return nil, "", 0, false
	}
	if class == "" {
		class = string(workload.ClassA)
	}
	S, err := spec.Iterations(workload.Class(class))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad class %q: %v", class, err)
		return nil, "", 0, false
	}
	annotate(r.Context(),
		slog.String("system", system),
		slog.String("program", program),
		slog.String("class", class))
	e, err := s.model(r.Context(), modelKey{system: system, program: program}, admitted)
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.reject(w, r.URL.Path)
			return nil, "", 0, false
		}
		if interrupted(w, err) {
			return nil, "", 0, false
		}
		httpError(w, http.StatusInternalServerError, "characterisation failed: %v", err)
		return nil, "", 0, false
	}
	return e, workload.Class(class), S, true
}

// validEngine checks a request's optional engine field (see
// exec.ValidateEngine): anything but empty or "sequential" is the
// caller's fault (400, structured).
func validEngine(w http.ResponseWriter, engine string) bool {
	if err := exec.ValidateEngine(engine); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// predictRequest is the /v1/predict body.
type predictRequest struct {
	System  string  `json:"system"`
	Program string  `json:"program"`
	Class   string  `json:"class"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	FreqGHz float64 `json:"freq_ghz"`
	Engine  string  `json:"engine"` // optional; only "sequential"
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	tc, _ := traceContextFor(r.Context())
	tDecode := stageStart(tc)
	body, ok := readBodyMax(w, r, 1<<20)
	if !ok {
		return
	}
	var req predictRequest
	if !decodeJSONBytes(w, body, &req) {
		return
	}
	s.spans.stage(tc, "decode", tDecode)
	if !validEngine(w, req.Engine) {
		return
	}
	if s.forwardIfRemote(w, r, body, req.System, req.Program) {
		return
	}
	// Predicts on a warm model are pure arithmetic and stay unthrottled;
	// only a predict that must first run a characterisation campaign
	// competes for an admission slot (claimed by the campaign leader
	// inside model, so concurrent cold predicts for one key don't shed
	// each other).
	e, class, S, ok := s.resolve(w, r, req.System, req.Program, req.Class, false)
	if !ok {
		return
	}
	cfg := machine.Config{Nodes: req.Nodes, Cores: req.Cores, Freq: req.FreqGHz * 1e9}
	if req.FreqGHz == 0 {
		cfg.Freq = e.prof.FMax()
	}
	if err := e.prof.ValidateModelConfig(cfg); err != nil {
		httpError(w, http.StatusBadRequest, "invalid configuration: %v", err)
		return
	}
	annotate(r.Context(), slog.String("config", cfg.String()))
	t0 := time.Now()
	pred, err := e.model.Predict(cfg, S)
	if err != nil {
		httpError(w, http.StatusBadRequest, "prediction rejected: %v", err)
		return
	}
	tPred := time.Now()
	s.spans.Record(tc, "model", "predict "+req.System+"/"+req.Program, t0, tPred)
	pj := toPredictionJSON(pred)
	s.applyAttribution(w, r, "/v1/predict", makeAttribution(1, pj.TimeS, pj.EnergyJ))
	tRender := stageStart(tc)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		System  string `json:"system"`
		Program string `json:"program"`
		Class   string `json:"class"`
		predictionJSON
	}{req.System, req.Program, string(class), pj})
	s.spans.stage(tc, "render", tRender)
}

// sweepRequest is the /v1/sweep body.
type sweepRequest struct {
	System    string  `json:"system"`
	Program   string  `json:"program"`
	Class     string  `json:"class"`
	MaxNodes  int     `json:"max_nodes"` // 0 = testbed size
	Pow2      bool    `json:"pow2"`
	Workers   int     `json:"workers"` // 0 = server default
	DeadlineS float64 `json:"deadline_s"`
	BudgetJ   float64 `json:"budget_j"`
	Engine    string  `json:"engine"` // optional; only "sequential"
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tc, _ := traceContextFor(r.Context())
	tDecode := stageStart(tc)
	body, ok := readBodyMax(w, r, 1<<20)
	if !ok {
		return
	}
	var req sweepRequest
	if !decodeJSONBytes(w, body, &req) {
		return
	}
	s.spans.stage(tc, "decode", tDecode)
	if !validEngine(w, req.Engine) {
		return
	}
	if s.forwardIfRemote(w, r, body, req.System, req.Program) {
		return
	}
	// Coordinates are validated — and defaults resolved — before the
	// response cache is consulted, so the cache key is canonical (an
	// explicit max_nodes equal to the testbed size hits the same entry as
	// an omitted one) and garbage requests never reach the cache.
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
	S, err := spec.Iterations(workload.Class(class))
	if err != nil {
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
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers > 4*runtime.GOMAXPROCS(0) {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	annotate(r.Context(),
		slog.String("system", req.System),
		slog.String("program", req.Program),
		slog.String("class", class),
		slog.Int("workers", workers))

	key := sweepCacheKey(req.System, req.Program, class, maxNodes, req.Pow2, req.DeadlineS, req.BudgetJ)
	s.respondCached(w, r, "/v1/sweep", key, func() (*cachedResponse, error) {
		// Sweeps always count against the campaign budget: even on a warm
		// model a full-space evaluation is the heavy path. The flight
		// leader's slot covers the whole computation, including a cold
		// characterisation (model is told the request is already
		// admitted); collapsed followers and cache hits never claim one.
		release, ok := s.acquire()
		if !ok {
			return nil, fmt.Errorf("sweep: %w", errSaturated)
		}
		defer release()
		e, err := s.model(r.Context(), modelKey{system: req.System, program: req.Program}, true)
		if err != nil {
			return nil, err
		}
		var nodes []int
		if req.Pow2 {
			nodes = pareto.PowersOfTwo(maxNodes)
		} else {
			nodes = pareto.Range(1, maxNodes)
		}
		cfgs := pareto.Space(nodes, e.prof.CoresPerNode, e.prof.Frequencies)
		t0 := time.Now()
		points, err := pareto.EvaluateParallel(r.Context(), e.model, cfgs, S, workers)
		if err != nil {
			return nil, fmt.Errorf("sweep failed: %w", err)
		}
		front := pareto.Frontier(points)
		tEval := time.Now()
		s.spans.Record(tc, "model",
			"evaluate "+req.System+"/"+req.Program+" ("+strconv.Itoa(len(cfgs))+" cfgs)", t0, tEval)
		tRender := stageStart(tc)
		resp := buildSweepResponse(req.System, req.Program, class, len(cfgs), front, points, req.DeadlineS, req.BudgetJ)
		s.spans.stage(tc, "render", tRender)
		return resp, nil
	})
}

// sweepSummary is the header of a sweep answer: everything except the
// frontier list itself. It doubles as the NDJSON summary line, so the
// streamed and document forms carry identical fields by construction.
type sweepSummary struct {
	System   string          `json:"system"`
	Program  string          `json:"program"`
	Class    string          `json:"class"`
	Configs  int             `json:"configs"`
	Points   int             `json:"frontier_points"`
	Deadline *predictionJSON `json:"min_energy_within_deadline,omitempty"`
	Budget   *predictionJSON `json:"min_time_within_budget,omitempty"`
}

// buildSweepResponse renders both wire shapes of a sweep answer — the
// canonical JSON document (summary fields + frontier array) and the
// NDJSON lines (one frontier point per line, then the summary) — by
// marshalling each frontier point once and splicing the fragments into
// both shapes (see spliceResponse).
func buildSweepResponse(system, program, class string, configs int, front, points []pareto.Point, deadlineS, budgetJ float64) *cachedResponse {
	sum := sweepSummary{System: system, Program: program, Class: class, Configs: configs, Points: len(front)}
	if deadlineS > 0 {
		if p, ok := pareto.MinEnergyWithinDeadline(points, deadlineS); ok {
			pj := toPredictionJSON(p.Pred)
			sum.Deadline = &pj
		}
	}
	if budgetJ > 0 {
		if p, ok := pareto.MinTimeWithinBudget(points, budgetJ); ok {
			pj := toPredictionJSON(p.Pred)
			sum.Budget = &pj
		}
	}
	frontier := make([]predictionJSON, len(front))
	var simS, energyJ float64
	for i, p := range front {
		frontier[i] = toPredictionJSON(p.Pred)
		simS += frontier[i].TimeS
		energyJ += frontier[i].EnergyJ
	}
	resp := spliceResponse(mustJSON(sum), "frontier", "point", marshalEach(frontier))
	// Attribution covers what the body carries: the frontier points, in
	// canonical order, so header sums equal a client's sum over the body.
	resp.attr = makeAttribution(len(frontier), simS, energyJ)
	return resp
}

// handleSystems serves the static capability document. It is rendered
// once per process and carries a strong ETag (content hash), so pollers
// — loadgen enumerates the config space from it before every batch run —
// revalidate with If-None-Match and get a body-less 304.
func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	s.systemsOnce.Do(func() {
		s.systemsBody = append(mustJSON(systemsDocument()), '\n')
		sum := sha256.Sum256(s.systemsBody)
		s.systemsETag = `"` + hex.EncodeToString(sum[:8]) + `"`
	})
	w.Header().Set("ETag", s.systemsETag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, s.systemsETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.systemsBody)
}

// etagMatches implements If-None-Match for a single strong ETag: "*"
// matches anything, otherwise each comma-separated candidate is compared
// after stripping an optional W/ weak prefix (weak comparison is fine for
// If-None-Match).
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// systemsDocument builds the /v1/systems payload. The engines fields
// predate the single engine and stay for clients that read them.
func systemsDocument() any {
	type systemJSON struct {
		Name         string    `json:"name"`
		ISA          string    `json:"isa"`
		MaxNodes     int       `json:"max_nodes"`
		CoresPerNode int       `json:"cores_per_node"`
		FreqsGHz     []float64 `json:"frequencies_ghz"`
		Topology     string    `json:"topology"`
	}
	profiles := machine.Profiles()
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	var systems []systemJSON
	for _, n := range names {
		p := profiles[n]
		freqs := make([]float64, len(p.Frequencies))
		for i, f := range p.Frequencies {
			freqs[i] = f / 1e9
		}
		topo := p.Topology
		if topo == "" {
			topo = machine.TopologyShared
		}
		systems = append(systems, systemJSON{
			Name: n, ISA: p.ISA, MaxNodes: p.MaxNodes, CoresPerNode: p.CoresPerNode,
			FreqsGHz: freqs, Topology: string(topo),
		})
	}
	var programs []string
	for _, spec := range workload.Extended() {
		programs = append(programs, spec.Name)
	}
	return struct {
		Systems       []systemJSON `json:"systems"`
		Programs      []string     `json:"programs"`
		Classes       []string     `json:"classes"`
		Engines       []string     `json:"engines"`
		DefaultEngine string       `json:"default_engine"`
	}{systems, programs, classNames(), []string{exec.EngineName}, exec.EngineName}
}

func classNames() []string {
	var out []string
	for _, c := range workload.Classes() {
		out = append(out, string(c))
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// handleDebugTrace records spans for the requested window (default 1s,
// capped at 30s) and returns them as Chrome-trace JSON: the on-demand
// "what is the server doing right now" probe.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	dur := time.Second
	if q := r.URL.Query().Get("duration"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad duration %q", q)
			return
		}
		dur = d
	}
	if dur > 30*time.Second {
		dur = 30 * time.Second
	}
	t0 := time.Now()
	select {
	case <-time.After(dur):
	case <-r.Context().Done():
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.spans.WriteChrome(w, t0); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelError, "trace export failed", slog.Any("err", err))
	}
}
