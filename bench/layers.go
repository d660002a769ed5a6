package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"hybridperf"
	"hybridperf/internal/pareto"
	"hybridperf/internal/telemetry"
	"hybridperf/internal/trace"
)

// maxSpans bounds the span file; spans past it are counted, not kept.
const maxSpans = 8192

// tracer keeps the benchmark's own spans — around each sampled HTTP
// request and each in-process call into a layer — plus the server spans
// pulled for sampled requests, and sums the servers' stage times.
// Every method is a no-op on a nil tracer, which is the untraced run.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	procs   map[string][]trace.Span
	order   []string
	spans   int
	dropped int

	// Stage times [µs] summed over every sampled server hop.
	hops                                int
	root, decode, lookup, model, render float64
	unexplained                         float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), procs: map[string][]trace.Span{}}
}

func (t *tracer) span(proc, cat, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.addLocked(proc, trace.Span{Name: name, Cat: cat, Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds()})
	t.mu.Unlock()
}

func (t *tracer) addLocked(proc string, s trace.Span) {
	if t.spans >= maxSpans {
		t.dropped++
		return
	}
	if _, ok := t.procs[proc]; !ok {
		t.order = append(t.order, proc)
	}
	t.procs[proc] = append(t.procs[proc], s)
	t.spans++
}

// payload adds one server hop of a sampled request. Its "http" span is
// the whole hop; the handler's decode, cache-lookup and render spans and
// its "model" spans (predict, evaluate, advise, characterize) are
// disjoint children, and what they leave of the hop is unexplained.
func (t *tracer) payload(source string, p *telemetry.TracePayload) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var root, children float64
	for _, s := range p.Spans {
		d := float64(s.EndUS - s.StartUS)
		switch {
		case s.Cat == "http":
			root += d
			d = 0
		case s.Cat == "model":
			t.model += d
		case s.Name == "decode":
			t.decode += d
		case s.Name == "cache-lookup":
			t.lookup += d
		case s.Name == "render":
			t.render += d
		}
		children += d
		t.addLocked(source, trace.Span{Name: s.Name, Cat: s.Cat,
			Start: time.UnixMicro(s.StartUS).Sub(t.origin).Seconds(),
			End:   time.UnixMicro(s.EndUS).Sub(t.origin).Seconds()})
	}
	t.hops++
	t.root += root
	t.unexplained += max(root-children, 0)
}

// write saves the spans as a Chrome-trace JSON file, one process lane
// group for the benchmark and one per daemon.
func (t *tracer) write(path string) error {
	procs := make([]trace.ProcessTrace, 0, len(t.order))
	for _, name := range t.order {
		procs = append(procs, trace.ProcessTrace{Name: name, Spans: t.procs[name]})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeProcesses(f, procs); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layers derives the per-layer metrics of a traced run: counter deltas
// scraped around the timed phases, the server stage times of the sampled
// requests, and in-process timings of each layer's public entry points on
// the workload's own inputs.
func (r *runner) layers(res *result, ref *reference, st *phaseStats, hopPct float64) error {
	v := res.values
	delta := func(name string) float64 { return st.counter[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["des.events"] = delta("hybridperf_engine_events_total")
	v["des.mpi_messages"] = delta("hybridperf_engine_mpi_messages_total")
	v["characterize.campaigns"] = delta("hybridperf_model_characterizations_total")
	hits := delta("hybridperf_response_cache_hits_total")
	v["telemetry.cache_hit_ratio"] = ratio(hits, hits+delta("hybridperf_response_cache_misses_total"))
	v["telemetry.cache_evictions"] = delta("hybridperf_response_cache_evictions_total")
	v["telemetry.cache_collapsed"] = delta("hybridperf_response_cache_collapsed_total")
	v["telemetry.rejected"] = delta("hybridperf_http_requests_rejected_total")
	v["telemetry.cancelled"] = delta("hybridperf_http_requests_cancelled_total")
	v["cluster.forwards"] = delta("hybridperf_cluster_forwards_total")
	v["gateway.fanout_per_req"] = ratio(delta("hybridperf_gateway_fanout_total"), delta("hybridperf_gateway_requests_total"))
	v["gateway.fanout_errors"] = delta("hybridperf_gateway_fanout_errors_total")
	v["gateway.hop_pct"] = hopPct

	t := r.tr
	if t.hops == 0 {
		return fmt.Errorf("no sampled request traces were pulled")
	}
	v["telemetry.decode_pct"] = 100 * t.decode / t.root
	v["telemetry.cache_lookup_pct"] = 100 * t.lookup / t.root
	v["telemetry.evaluate_pct"] = 100 * t.model / t.root
	v["telemetry.render_pct"] = 100 * t.render / t.root
	v["telemetry.unexplained_us"] = t.unexplained / float64(t.hops)

	closed := st.recs[phaseClosed]
	on := millis(closed, func(rec *record) bool { return rec.traced })
	off := millis(closed, func(rec *record) bool { return !rec.traced })
	v["trace.overhead_pct"] = 100 * (nearestRank(on, 50)/nearestRank(off, 50) - 1)

	// The advise layer on this workload's keys: the sampled answers the
	// check recomputed, or else the head of this seed's advise sequence.
	if len(ref.advises) == 0 {
		seq, err := adviseSequence(r.opt.seed, r.cat)
		if err != nil {
			return err
		}
		for _, k := range seq[:adviseRecomputes] {
			if _, err := ref.advise(k); err != nil {
				return fmt.Errorf("advise %v: %w", k, err)
			}
		}
	}
	events := ref.eng.Snapshot().Events
	runs := slices.Clone(ref.runs)
	slices.Sort(runs)
	wall := 0.0
	for _, ms := range runs {
		wall += ms
	}
	v["des.ns_per_event"] = wall * 1e6 / float64(events)
	v["exec.runs"] = float64(len(runs))
	v["exec.run_ms_p50"] = nearestRank(runs, 50)
	v["characterize.campaign_ms"] = float64(ref.campaign) / 1e6
	advises := slices.Clone(ref.advises)
	slices.Sort(advises)
	v["characterize.advise_ms_p50"] = nearestRank(advises, 50)

	v["core.predict_ns_p50"] = r.predictLayer(ref)
	var err error
	if v["pareto.evaluate_us_p50"], v["pareto.frontier_us_p50"], err = r.paretoLayer(ref); err != nil {
		return err
	}
	if v["telemetry.handler_us_p50"], v["telemetry.allocs_per_req"], err = r.handlerLayer(); err != nil {
		return err
	}
	v["http.loopback_us"] = 1000*v["closed_p50_ms"] - v["telemetry.handler_us_p50"]

	path := fmt.Sprintf("%s/trace-%s-seed%d.json", r.opt.workDir, r.w.name, r.opt.seed)
	if err := t.write(path); err != nil {
		return err
	}
	res.info = append(res.info, fmt.Sprintf("spans: %s (%d kept, %d dropped; %d server hops sampled)", path, t.spans, t.dropped, t.hops))
	return nil
}

// predictLayer times core.Model.Predict on serve-fresh's predict tuples,
// in blocks of 64 calls so the clock's resolution does not matter.
func (r *runner) predictLayer(ref *reference) float64 {
	type call struct {
		m   *hybridperf.Model
		cfg hybridperf.Config
		S   int
	}
	calls := make([]call, 4096)
	for i := range calls {
		p := newPRNG(r.opt.seed, "layer-predict", i)
		k := r.gen.key(&p)
		class := p.pick(servedClasses)
		n, c, f := r.gen.config(&p, k.system)
		m := ref.models[k]
		S, _ := m.Program().Iterations(hybridperf.Class(class))
		calls[i] = call{m, hybridperf.Config{Nodes: n, Cores: c, Freq: f * 1e9}, S}
	}
	const block = 64
	var perCall []float64
	for lo := 0; lo < len(calls); lo += block {
		start := time.Now()
		for _, c := range calls[lo : lo+block] {
			c.m.Core().Predict(c.cfg, c.S)
		}
		end := time.Now()
		perCall = append(perCall, float64(end.Sub(start))/block)
		r.tr.span("bench", "layer", "core.Predict ×64", start, end)
	}
	slices.Sort(perCall)
	return nearestRank(perCall, 50)
}

// paretoLayer times pareto.EvaluateParallel on serve-fresh-shaped batch
// configuration lists and pareto.Frontier on whole sweep spaces.
func (r *runner) paretoLayer(ref *reference) (evalUS, frontUS float64, err error) {
	workers := runtime.GOMAXPROCS(0)
	var evals, fronts []float64
	for i := 0; i < 200; i++ {
		p := newPRNG(r.opt.seed, "layer-pareto", i)
		k := r.gen.key(&p)
		m := ref.models[k]
		S, err := m.Program().Iterations(hybridperf.Class(p.pick(servedClasses)))
		if err != nil {
			return 0, 0, err
		}
		cfgs := make([]hybridperf.Config, 16+p.intn(177))
		for j := range cfgs {
			n, c, f := r.gen.config(&p, k.system)
			cfgs[j] = hybridperf.Config{Nodes: n, Cores: c, Freq: f * 1e9}
		}
		start := time.Now()
		if _, err := pareto.EvaluateParallel(context.Background(), m.Core(), cfgs, S, workers); err != nil {
			return 0, 0, err
		}
		end := time.Now()
		evals = append(evals, float64(end.Sub(start))/1e3)
		r.tr.span("bench", "layer", fmt.Sprintf("pareto.EvaluateParallel %d cfgs", len(cfgs)), start, end)
		if i%2 == 0 {
			points, err := pareto.EvaluateParallel(context.Background(), m.Core(), m.Space(pareto.Range(1, m.System().MaxNodes)), S, workers)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			pareto.Frontier(points)
			end := time.Now()
			fronts = append(fronts, float64(end.Sub(start))/1e3)
			r.tr.span("bench", "layer", fmt.Sprintf("pareto.Frontier %d points", len(points)), start, end)
		}
	}
	slices.Sort(evals)
	slices.Sort(fronts)
	return nearestRank(evals, 50), nearestRank(fronts, 50), nil
}

// handlerLayer replays the head of the closed-phase stream through an
// in-process telemetry.Server built like hybridperfd's defaults, timing
// each ServeHTTP and counting allocations (the recorder's included).
func (r *runner) handlerLayer() (p50us, allocsPerReq float64, err error) {
	srv := telemetry.NewServer(telemetry.Config{
		Seed:             serveSeed,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		ResponseCache:    512,
		ResponseCacheTTL: 5 * time.Minute,
	})
	for _, k := range r.cat.keys {
		if err := srv.Warm(k.system, k.program); err != nil {
			return 0, 0, err
		}
	}
	srv.SetReady(true)
	h := srv.Handler()
	newReq := func(req request) *http.Request {
		return httptest.NewRequest(http.MethodPost, routes[req.kind], bytes.NewReader(req.body))
	}
	for _, req := range r.gen.hotPool {
		h.ServeHTTP(httptest.NewRecorder(), newReq(req))
	}
	// Bounded by count and by time: an advise request simulates for up to
	// half a second.
	const maxReqs, budget = 1000, 2 * time.Second
	reqs := make([]*http.Request, maxReqs)
	recs := make([]*httptest.ResponseRecorder, maxReqs)
	for i := range reqs {
		reqs[i], recs[i] = newReq(r.gen.request(phaseClosed, i)), httptest.NewRecorder()
	}
	times := make([]time.Time, maxReqs+1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	times[0] = time.Now()
	n := 0
	for n < maxReqs && times[n].Sub(times[0]) < budget {
		h.ServeHTTP(recs[n], reqs[n])
		n++
		times[n] = time.Now()
	}
	runtime.ReadMemStats(&m1)
	lat := make([]float64, n)
	for i := range lat {
		if recs[i].Code >= 400 {
			return 0, 0, fmt.Errorf("in-process %s: HTTP %d: %s", reqs[i].URL.Path, recs[i].Code, recs[i].Body)
		}
		lat[i] = float64(times[i+1].Sub(times[i])) / 1e3
		r.tr.span("bench", "layer", "ServeHTTP "+reqs[i].URL.Path, times[i], times[i+1])
	}
	slices.Sort(lat)
	return nearestRank(lat, 50), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// gatewayHop compares predict latency through the gateway with the same
// bodies sent straight to the owning shard, marked as already forwarded
// so the shard serves them itself. It returns the gateway's share of the
// gateway p50 [%].
func (r *runner) gatewayHop(d *deployment) (float64, error) {
	var lat [2][]float64 // [0] through the gateway, [1] straight to the owner
	forwarded := http.Header{"X-Hybridperf-Forwarded": {"bench"}}
	var buf bytes.Buffer
	for i := 0; i < 400; i++ {
		p := newPRNG(r.opt.seed, "hop", i)
		req := r.gen.predict(&p)
		var in requestBody
		if err := json.Unmarshal(req.body, &in); err != nil {
			return 0, err
		}
		for k := range 2 {
			path := (i + k) % 2 // alternate which path goes first
			base, hdr := d.entry, http.Header(nil)
			if path == 1 {
				base, hdr = r.gen.owner(modelKey{in.System, in.Program}), forwarded
			}
			start := time.Now()
			if _, err := r.post(r.ctx, base, req, hdr, &buf); err != nil {
				return 0, fmt.Errorf("gateway hop: %w", err)
			}
			lat[path] = append(lat[path], float64(time.Since(start))/1e6)
		}
	}
	slices.Sort(lat[0])
	slices.Sort(lat[1])
	gw := nearestRank(lat[0], 50)
	return 100 * (gw - nearestRank(lat[1], 50)) / gw, nil
}
