// Command hybridperfd serves the analytical model as a long-running,
// observable HTTP service: POST /v1/predict for one (system, program,
// class, n, c, f) point, POST /v1/batch for many tuples vectorised
// through the sweep engine (one model resolution per (system, program)
// group), POST /v1/sweep for a configuration-space sweep returning the
// time-energy Pareto frontier, POST /v1/advise for the online DVFS
// advisory plane (the governor policy suite simulated from the static
// Pareto point, each policy's frequency schedule and energy/makespan
// delta reported, the best within the -advise-slowdown tolerance
// recommended), GET /v1/systems for the available
// profiles (ETag/If-None-Match revalidation). Models are characterised
// lazily per (system, program) pair — with a fixed seed, so two daemons
// serve bit-identical predictions — and cached for the process lifetime.
//
// Sweep, batch and advise answers pass an LRU response cache keyed on
// the canonicalised request (-response-cache-size / -response-cache-ttl);
// identical concurrent requests collapse onto a single computation.
// These endpoints stream NDJSON instead of one JSON document when the
// client asks (Accept: application/x-ndjson or ?stream=1).
//
// Heavy work (characterisation campaigns, sweep/batch evaluations)
// passes a bounded admission gate (-max-campaigns): saturated requests
// are shed with 429 + Retry-After. Each request can carry a deadline
// (-request-timeout); a disconnected client or expired deadline cancels
// its in-flight simulations cooperatively.
//
// With -model-store the daemon persists every characterisation campaign
// as a versioned, checksummed snapshot and warm-loads matching snapshots
// at boot, so a restart serves its first prediction without re-running a
// single campaign — bit-identical to the cold path. With -peers/-self
// several daemons form a static cluster: each (system, program) model
// key has one owning replica on a consistent-hash ring and requests for
// remotely-owned keys are forwarded there (X-Hybridperf-Shard names the
// replica that answered; a request carrying X-Hybridperf-Forwarded is
// always served locally). Ownership is advisory — a forward that fails
// at the transport falls back to serving locally.
//
// Every simulation runs on the sequential DES engine. Request bodies
// still accept an optional "engine" field for clients of the former
// two-engine API: "sequential" (or no field) is served, the removed
// "goroutine" engine is a structured 400.
//
// Observability surface: GET /metrics (Prometheus text exposition of
// request counters/latency histograms plus the simulation engine's own
// counters), GET /healthz, GET /readyz, GET /debug/trace?duration=1s
// (Chrome-trace JSON of the server's recent spans) and /debug/pprof/.
// Every request logs one structured line (log/slog) with a request id,
// route, status, duration and model coordinates.
//
// Usage:
//
//	hybridperfd -addr :8080
//	hybridperfd -addr 127.0.0.1:8080 -preload xeon/SP,arm/CP -log json
//	hybridperfd -addr :8081 -model-store /var/lib/hybridperf/models \
//	    -self http://127.0.0.1:8081 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl -d '{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}' \
//	    localhost:8080/v1/predict
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hybridperf/internal/modelstore"
	"hybridperf/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "characterisation/sweep workers (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 42, "characterisation seed (fixed seed = reproducible predictions)")
		logFmt   = flag.String("log", "text", "request log format: text or json")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		preload  = flag.String("preload", "", "comma-separated system/program pairs to characterise before serving, e.g. xeon/SP,arm/CP")
		spanCap  = flag.Int("span-capacity", 0, "span flight-recorder capacity (0 = 4096)")
		maxCamp  = flag.Int("max-campaigns", 0, "max concurrent characterisation/sweep campaigns; excess requests get 429 (0 = 4)")
		reqTO    = flag.Duration("request-timeout", 0, "per-request deadline cancelling in-flight work, e.g. 30s (0 = none)")
		cacheSz  = flag.Int("response-cache-size", 512, "sweep/batch response cache entries; identical in-flight requests collapse onto one computation (0 = disabled)")
		cacheTTL = flag.Duration("response-cache-ttl", 5*time.Minute, "response cache entry lifetime (0 = entries never expire)")
		storeDir = flag.String("model-store", "", "directory for persistent characterisation snapshots; warm-loaded at boot, written after every campaign (empty = no persistence)")
		peers    = flag.String("peers", "", "comma-separated replica base URLs forming a static cluster, e.g. http://a:8080,http://b:8080 (empty = single instance)")
		self     = flag.String("self", "", "this replica's own base URL; must be one of -peers")
		traceSmp = flag.Float64("trace-sample", 0, "fraction of locally originated requests recording a span tree pullable via /debug/trace/{traceid} (0 = off; incoming traceparent headers always win)")
		advSlow  = flag.Float64("advise-slowdown", 0, "default /v1/advise makespan tolerance as a fraction in (0,1), e.g. 0.05 = 5% (0 = 0.05)")
	)
	flag.Parse()

	if *advSlow < 0 || *advSlow >= 1 {
		fmt.Fprintf(os.Stderr, "hybridperfd: bad -advise-slowdown %g (want a fraction in (0,1))\n", *advSlow)
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "hybridperfd: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFmt {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "hybridperfd: bad -log %q (want text or json)\n", *logFmt)
		os.Exit(2)
	}
	logger := slog.New(handler)

	var store *modelstore.Store
	if *storeDir != "" {
		var err error
		if store, err = modelstore.Open(*storeDir); err != nil {
			logger.Error("opening model store", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
	}

	srv := telemetry.NewServer(telemetry.Config{
		Workers:           *workers,
		Seed:              *seed,
		Logger:            logger,
		SpanCapacity:      *spanCap,
		MaxCampaigns:      *maxCamp,
		RequestTimeout:    *reqTO,
		ResponseCache:     *cacheSz,
		ResponseCacheTTL:  *cacheTTL,
		TraceSample:       *traceSmp,
		ModelStore:        store,
		AdviseMaxSlowdown: *advSlow,
	})

	if (*peers == "") != (*self == "") {
		fmt.Fprintln(os.Stderr, "hybridperfd: -peers and -self must be set together")
		os.Exit(2)
	}
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			list = append(list, strings.TrimSpace(p))
		}
		if err := srv.SetCluster(strings.TrimSpace(*self), list); err != nil {
			fmt.Fprintf(os.Stderr, "hybridperfd: %v\n", err)
			os.Exit(2)
		}
	}

	// Warm requested models before declaring readiness, so a load balancer
	// never routes traffic into a cold characterisation stampede.
	if *preload != "" {
		for _, pair := range strings.Split(*preload, ",") {
			system, program, ok := strings.Cut(strings.TrimSpace(pair), "/")
			if !ok {
				logger.Error("bad -preload entry (want system/program)", "entry", pair)
				os.Exit(2)
			}
			if err := srv.Warm(system, program); err != nil {
				logger.Error("preload failed", "system", system, "program", program, "err", err)
				os.Exit(1)
			}
		}
	}
	srv.SetReady(true)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "workers", *workers, "seed", *seed)

	select {
	case err := <-errc:
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}
