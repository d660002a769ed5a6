package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridperf/internal/telemetry"
)

// options are the command-line settings of one benchmark invocation.
type options struct {
	seed    int64
	measure time.Duration // split evenly over the timed phases of every boot
	// warmup is the untimed closed loop every boot runs before its phases,
	// long enough for a fresh daemon's response cache, body memo and heap
	// to reach their steady state (about two seconds on serve-fresh).
	warmup  time.Duration
	trace   bool
	workDir string // build outputs, child logs and the span file
}

// runner measures one workload for one seed.
type runner struct {
	ctx    context.Context
	opt    options
	w      *workload
	cat    *catalogue
	gen    *generator
	client *http.Client
	conns  int
	tr     *tracer    // nil unless tracing
	ref    *reference // built after the timed phases unless set
	// speedRef measures the workload's host reference around the chunks
	// of the closed loops.
	speedRef *refMeter

	mu       sync.Mutex
	samples  []sample        // distinct responses retained for the correctness check
	sampled  int             // responses drawn into the check sample, repeats included
	seen     map[uint64]bool // hashes of the retained (request, response) pairs
	hashSeed maphash.Seed
	failed   int      // requests that failed
	errs     []string // the first few of their errors
}

// deployment is one booted set of daemons.
type deployment struct {
	children []*child // shards or the single daemon, then the gateway
	entry    string   // base URL the load is sent to
	daemons  []string // hybridperfd base URLs
	all      []string // every process's base URL, for /metrics
}

// stop ends every child; stopping twice is harmless.
func (d *deployment) stop() {
	for _, c := range d.children {
		c.stop()
	}
	d.children = nil
}

// basePort is where the benchmark looks for free loopback ports.
const basePort = 18470

func newRunner(ctx context.Context, opt options, w *workload, cat *catalogue) *runner {
	conns := runtime.NumCPU()
	r := &runner{
		ctx: ctx, opt: opt, w: w, cat: cat, conns: conns,
		seen: map[uint64]bool{}, hashSeed: maphash.MakeSeed(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	if opt.trace {
		r.tr = newTracer()
	}
	return r
}

// urls are the base URLs the deployment will use; the generator
// needs them before boot to know which shard owns each model key.
func (r *runner) urls() ([]string, error) {
	n := 1
	if r.w.gateway {
		n = 3
	}
	ports, err := freePorts(basePort, n)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, p := range ports {
		urls = append(urls, "http://127.0.0.1:"+strconv.Itoa(p))
	}
	return urls, nil
}

// boot starts the workload's daemons with their shipped default flags and
// returns once every /readyz answers 200 with the workload's models
// characterised, with the time that took.
func (r *runner) boot(urls []string) (*deployment, time.Duration, error) {
	bin := filepath.Join(r.opt.workDir, "bin")
	logs := filepath.Join(r.opt.workDir, "logs")
	d := &deployment{}
	start := time.Now()
	fail := func(err error) (*deployment, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	addr := func(u string) string { return strings.TrimPrefix(u, "http://") }
	if !r.w.gateway {
		var keys []string
		for _, k := range r.cat.keys {
			keys = append(keys, k.system+"/"+k.program)
		}
		c, err := startChild("hybridperfd", urls[0], filepath.Join(bin, "hybridperfd"),
			filepath.Join(logs, r.w.name+"-hybridperfd.log"),
			"-addr", addr(urls[0]), "-preload", strings.Join(keys, ","))
		if err != nil {
			return fail(err)
		}
		d.children, d.entry, d.daemons, d.all = []*child{c}, urls[0], urls[:1], urls
	} else {
		shards := urls[:2]
		peers := strings.Join(shards, ",")
		for i, u := range shards {
			c, err := startChild(fmt.Sprintf("shard%d", i), u, filepath.Join(bin, "hybridperfd"),
				filepath.Join(logs, fmt.Sprintf("%s-shard%d.log", r.w.name, i)),
				"-addr", addr(u), "-self", u, "-peers", peers)
			if err != nil {
				return fail(err)
			}
			d.children = append(d.children, c)
		}
		gw, err := startChild("hybridperf-gw", urls[2], filepath.Join(bin, "hybridperf-gw"),
			filepath.Join(logs, r.w.name+"-gateway.log"), "-addr", addr(urls[2]), "-peers", peers)
		if err != nil {
			return fail(err)
		}
		d.children = append(d.children, gw)
		d.entry, d.daemons, d.all = urls[2], shards, urls
	}
	ctx, cancel := context.WithTimeout(r.ctx, 60*time.Second)
	defer cancel()
	for _, c := range d.children {
		if err := c.waitReady(ctx, r.client); err != nil {
			return fail(err)
		}
	}
	if r.w.gateway {
		// A sweep is chunked across every shard, so one per key warms
		// each model on both shards.
		var buf bytes.Buffer
		for _, k := range r.cat.keys {
			body := appendKey(nil, k)
			body = append(body, `,"class":"A"}`...)
			if _, err := r.post(ctx, d.entry, request{kind: kSweep, body: body}, nil, &buf); err != nil {
				return fail(fmt.Errorf("warming %s/%s through the gateway: %w", k.system, k.program, err))
			}
		}
	}
	return d, time.Since(start), nil
}

// post sends one request with the extra headers hdr, reads the response
// body into buf after resetting it, and returns X-Response-Cache; HTTP
// statuses >= 400 are errors.
func (r *runner) post(ctx context.Context, base string, req request, hdr http.Header, buf *bytes.Buffer) (string, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+routes[req.kind], bytes.NewReader(req.body))
	if err != nil {
		return "", err
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, vs := range hdr {
		hr.Header[k] = vs
	}
	resp, err := r.client.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", fmt.Errorf("%s: reading response: %w", routes[req.kind], err)
	}
	if resp.StatusCode >= 400 {
		return "", fmt.Errorf("%s: HTTP %d: %s", routes[req.kind], resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return resp.Header.Get("X-Response-Cache"), nil
}

// bodies are the response buffers of the load loops. Reusing them keeps
// the benchmark's allocation, and the CPU its garbage collector takes
// from the daemons, independent of response sizes.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sample is one retained response of the seeded 1-in-16 check sample.
type sample struct {
	phase, i int
	req      request
	body     []byte
}

// oneIn is a seeded 1-in-n choice of request i of a phase.
func (r *runner) oneIn(n int, stream string, phase, i int) bool {
	p := newPRNG(r.opt.seed, stream+phaseNames[phase], i)
	return p.intn(n) == 0
}

// traceIDs are the deterministic W3C trace and span ids of request i.
func (r *runner) traceIDs(phase, i int) (traceID, parent string) {
	p := newPRNG(r.opt.seed, "trace-"+phaseNames[phase], i)
	var b [24]byte
	for j := 0; j < 24; j += 8 {
		v := p.next()
		for k := 0; k < 8; k++ {
			b[j+k] = byte(v >> (8 * k))
		}
	}
	h := hex.EncodeToString(b[:])
	return h[:32], h[32:]
}

// sendFunc returns the function a load loop calls to send its i-th
// request against d: request offset+i of the phase. In a traced run,
// tracing reports whether tracing is on at the moment, and one request in
// eight sent while it is carries a sampled traceparent.
func (r *runner) sendFunc(d *deployment, phase, offset int, tracing func() bool) func(i int) outcome {
	return func(i int) outcome {
		i += offset
		req := r.gen.request(phase, i)
		var hdr http.Header
		var traceID string
		on := r.tr != nil && tracing()
		if on && r.oneIn(8, "trace-sample-", phase, i) {
			var parent string
			traceID, parent = r.traceIDs(phase, i)
			hdr = http.Header{"Traceparent": {"00-" + traceID + "-" + parent + "-01"}}
		}
		buf := bodies.Get().(*bytes.Buffer)
		defer bodies.Put(buf)
		start := time.Now()
		cache, err := r.post(r.ctx, d.entry, req, hdr, buf)
		end := time.Now()
		if err != nil {
			r.mu.Lock()
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Sprintf("%s request %d: %v", phaseNames[phase], i, err))
			}
			r.mu.Unlock()
			return outcome{err: err, traced: on}
		}
		if r.oneIn(16, "check-", phase, i) {
			r.keep(sample{phase: phase, i: i, req: req, body: buf.Bytes()})
		}
		if traceID != "" {
			r.tr.span("bench", "client", "POST "+routes[req.kind], start, end)
			for _, u := range d.daemons {
				r.pullTrace(u, traceID)
			}
		}
		return outcome{cache: cache, traced: on}
	}
}

// keep retains a copy of a sampled answer for the check. A repeat of a
// (request, answer) pair already retained — every serve-hot body comes
// back many times — is counted but not kept again, so the benchmark's
// heap, and the garbage collection it runs during the timed phases, grows
// with the distinct answers rather than with the request rate.
func (r *runner) keep(s sample) {
	var h maphash.Hash
	h.SetSeed(r.hashSeed)
	h.Write(s.req.body)
	h.WriteByte(0)
	h.Write(s.body)
	sum := h.Sum64()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampled++
	if !r.seen[sum] {
		r.seen[sum] = true
		s.body = bytes.Clone(s.body)
		r.samples = append(r.samples, s)
	}
}

// pullTrace fetches one daemon's span payload for a sampled request; a
// 404 means that daemon took no part in it.
func (r *runner) pullTrace(base, traceID string) {
	resp, err := r.client.Get(base + "/debug/trace/" + traceID)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var p telemetry.TracePayload
	if json.NewDecoder(resp.Body).Decode(&p) == nil {
		r.tr.payload(base, &p)
	}
}

// phaseStats pool the measurements of the phases over every boot.
type phaseStats struct {
	window  time.Duration // length of one timed phase on one boot
	recs    [numPhases][]record
	sent    [numPhases]int // requests issued so far, the next one's index
	chunks  []closedChunk  // every chunk of every boot's closed loop
	cpuSecs float64        // server CPU over the closed loops
	backlog int            // worst open-loop backlog when an arrival window closed
	invalid []string       // open-loop phases whose backlog kept growing
	counter map[string]float64
	rss     []float64 // per boot, summed over the children
}

// closedChunk is one chunk of a closed loop.
type closedChunk struct {
	ok    int     // successful requests that ended in the chunk
	secs  float64 // its length
	speed float64 // the host's speed around it, relative to the nominal host
}

// openPhases are the open-loop phases a run measures. Only a traced run
// reports their metrics, so an untraced one spends all of its measured time
// on the closed loop, whose metrics are the end-to-end ones.
func (r *runner) openPhases() []int {
	if r.tr == nil {
		return nil
	}
	return []int{phaseLow, phaseHigh}
}

// runPhases drives one boot's share of the open-loop and closed phases,
// after the warm-up.
func (r *runner) runPhases(d *deployment, boot int, st *phaseStats) error {
	always, never := func() bool { return true }, func() bool { return false }
	warm := closedLoop(wallClock{}, r.opt.warmup, r.conns, r.sendFunc(d, phaseWarm, st.sent[phaseWarm], never))
	st.recs[phaseWarm] = append(st.recs[phaseWarm], warm...)
	st.sent[phaseWarm] += len(warm)
	for _, phase := range r.openPhases() {
		rate := r.w.low
		if phase == phaseHigh {
			rate = r.w.high
		}
		dues := poissonDues(r.opt.seed, phase, boot, rate, st.window)
		recs := openLoop(wallClock{}, dues, r.conns, r.sendFunc(d, phase, st.sent[phase], always))
		if len(recs) > 0 {
			origin := recs[0].due.Add(-dues[0])
			mid, end := backlog(recs, origin.Add(st.window/2)), backlog(recs, origin.Add(st.window))
			st.backlog = max(st.backlog, end)
			if end > 10 && end > mid {
				st.invalid = append(st.invalid, fmt.Sprintf("phase %s, boot %d: backlog grew from %d to %d requests", phaseNames[phase], boot, mid, end))
			}
		}
		st.recs[phase] = append(st.recs[phase], recs...)
		st.sent[phase] += len(recs)
	}
	// The closed loop runs in chunks with the workload's host reference
	// measured before the first and after every chunk; each chunk is
	// scaled by the mean speed measured on either side of it.
	chunks := max(1, int(st.window/r.w.chunk))
	chunk := st.window / time.Duration(chunks)
	before, err := r.speedRef.speed()
	if err != nil {
		return err
	}
	for k := 0; k < chunks; k++ {
		cpu0, err := r.serverCPU(d)
		if err != nil {
			return err
		}
		// A traced run alternates eight parts of every chunk between
		// tracing off and on, so the tracing overhead is measured under the
		// same conditions.
		t0, part := time.Now(), chunk/8
		tracedPart := func() bool { return time.Since(t0)/part%2 == 1 }
		recs := closedLoop(wallClock{}, chunk, r.conns, r.sendFunc(d, phaseClosed, st.sent[phaseClosed], tracedPart))
		cpu1, err := r.serverCPU(d)
		if err != nil {
			return err
		}
		after, err := r.speedRef.speed()
		if err != nil {
			return err
		}
		st.chunks = append(st.chunks, closedChunk{ok: completedWithin(recs, t0, chunk), secs: chunk.Seconds(), speed: (before + after) / 2})
		before = after
		st.cpuSecs += cpu1 - cpu0
		st.recs[phaseClosed] = append(st.recs[phaseClosed], recs...)
		st.sent[phaseClosed] += len(recs)
	}
	return nil
}

func (r *runner) serverCPU(d *deployment) (float64, error) {
	total := 0.0
	for _, c := range d.children {
		s, err := cpuSeconds(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func peakRSS(d *deployment) (float64, error) {
	total := 0.0
	for _, c := range d.children {
		m, err := peakRSSMiB(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// scrapeAll sums each metric family over every process.
func (r *runner) scrapeAll(d *deployment) (map[string]float64, error) {
	total := map[string]float64{}
	for _, u := range d.all {
		m, err := scrape(r.ctx, r.client, u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// defaultEngine asks a daemon which engine requests without an "engine"
// field run on.
func (r *runner) defaultEngine(base string) (string, error) {
	resp, err := r.client.Get(base + "/v1/systems")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		DefaultEngine string `json:"default_engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("decoding /v1/systems: %w", err)
	}
	return doc.DefaultEngine, nil
}

// result is everything one run measured.
type result struct {
	values    map[string]float64
	attempted int
	failed    int      // failed requests plus failed checks
	failures  []string // failed checks
	invalid   []string // open-loop phases the generator could not hold
	info      []string
}

func (res *result) fail(format string, args ...any) {
	res.failures = append(res.failures, fmt.Sprintf(format, args...))
	res.failed++
}

// setupBoots is how many cold boots a run makes. setup_s is their median,
// and each boot serves an equal share of every phase, so process-level
// luck — memory layout, map hash seeds, thread placement — averages out
// of the pooled metrics instead of deciding a whole run.
const setupBoots = 3

// run boots the workload's daemons, measures them and checks the answers.
func (r *runner) run() (*result, error) {
	urls, err := r.urls()
	if err != nil {
		return nil, err
	}
	shards := urls
	if r.w.gateway {
		shards = urls[:2]
	}
	if r.gen, err = newGenerator(r.w, r.opt.seed, r.cat, shards); err != nil {
		return nil, err
	}
	return r.measure(func() (*deployment, time.Duration, error) { return r.boot(urls) })
}

// measure boots the deployment setupBoots times, drives each boot's share
// of the timed phases, and then checks the sampled answers against the
// in-process reference.
func (r *runner) measure(boot func() (*deployment, time.Duration, error)) (*result, error) {
	res := &result{values: map[string]float64{}}
	phases := time.Duration(1 + len(r.openPhases()))
	st := &phaseStats{window: r.opt.measure / (phases * setupBoots), counter: map[string]float64{}}
	// Set-up is mostly characterisation, so it is scaled by the compute
	// reference measured just before and after each boot.
	setupRef, err := newRefMeter(computeRef, r.conns)
	if err != nil {
		return nil, err
	}
	defer setupRef.stop()
	r.speedRef = setupRef
	if r.w.speedRef != computeRef {
		if r.speedRef, err = newRefMeter(r.w.speedRef, r.conns); err != nil {
			return nil, err
		}
		defer r.speedRef.stop()
	}
	var setups, setupSpeeds []float64
	var hopPct float64
	for b := 0; b < setupBoots; b++ {
		before, err := setupRef.speed()
		if err != nil {
			return nil, err
		}
		d, took, err := boot()
		if err != nil {
			return nil, err
		}
		after, err := setupRef.speed()
		if err == nil {
			setups = append(setups, took.Seconds()*(before+after)/2)
			setupSpeeds = append(setupSpeeds, (before+after)/2)
			err = r.serveBoot(d, b, st, res)
		}
		if err == nil && r.tr != nil && r.w.gateway && b == setupBoots-1 {
			hopPct, err = r.gatewayHop(d)
		}
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	res.info = append(res.info, fmt.Sprintf("setup: scaled %.3f s at compute speeds %.3f", setups, setupSpeeds))
	slices.Sort(setups)
	res.values["setup_s"] = setups[len(setups)/2]
	slices.Sort(st.rss)
	res.values["peak_rss_mb"] = st.rss[len(st.rss)/2]
	r.endToEnd(res, st)
	for _, rec := range st.recs {
		res.attempted += len(rec)
	}
	res.failed += r.failed
	res.failures = append(res.failures, r.errs...)
	res.invalid = append(res.invalid, st.invalid...)
	if n := st.counter["hybridperf_model_characterizations_total"]; n != 0 {
		res.fail("%v characterisation campaigns ran during the timed phases (models must be ready at setup)", n)
	}
	r.checkCacheHeaders(res, st)
	if r.ref == nil {
		var err error
		if r.ref, err = newReference(r.cat, r.tr); err != nil {
			return nil, err
		}
	}
	r.checkSamples(res, r.ref)
	if r.tr != nil {
		if err := r.layers(res, r.ref, st, hopPct); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveBoot drives one boot's share of the phases, adding its counter
// deltas and peak RSS to st.
func (r *runner) serveBoot(d *deployment, boot int, st *phaseStats, res *result) error {
	if boot == 0 {
		engine, err := r.defaultEngine(d.daemons[0])
		if err != nil {
			return err
		}
		res.info = append(res.info, "engine="+engine)
	}
	var buf bytes.Buffer
	for _, req := range r.gen.hotPool {
		if _, err := r.post(r.ctx, d.entry, req, nil, &buf); err != nil {
			return fmt.Errorf("answering the serve-hot pool: %w", err)
		}
	}
	before, err := r.scrapeAll(d)
	if err != nil {
		return err
	}
	if err := r.runPhases(d, boot, st); err != nil {
		return err
	}
	after, err := r.scrapeAll(d)
	if err != nil {
		return err
	}
	for k, v := range after {
		st.counter[k] += v - before[k]
	}
	rss, err := peakRSS(d)
	st.rss = append(st.rss, rss)
	return err
}

// endToEnd derives the latency, throughput and CPU metrics of the pooled
// phases, and the generator's validity.
func (r *runner) endToEnd(res *result, st *phaseStats) {
	closed := st.recs[phaseClosed]
	ok := 0
	for _, rec := range closed {
		if rec.err == nil {
			ok++
		}
	}
	// Requests per second on the nominal host: every chunk's requests over
	// the time the chunk would have taken there.
	var n int
	var secs, nominalSecs float64
	for _, c := range st.chunks {
		n += c.ok
		secs += c.secs
		nominalSecs += c.secs * c.speed
	}
	res.values["capacity_rps"] = float64(n) / nominalSecs
	res.info = append(res.info, fmt.Sprintf("capacity: %d chunks of %.3g s; measured %.1f req/s at %s speed %.3f",
		len(st.chunks), secs/float64(len(st.chunks)), float64(n)/secs, r.w.speedRef.name, nominalSecs/secs))
	res.values["cpu_us_per_req"] = st.cpuSecs * 1e6 / float64(max(ok, 1))
	untraced := func(rec *record) bool { return !rec.traced }
	res.values["closed_p50_ms"] = nearestRank(millis(closed, untraced), 50)
	res.values["low_p50_ms"] = nearestRank(millis(st.recs[phaseLow], nil), 50)
	res.values["high_p50_ms"] = nearestRank(millis(st.recs[phaseHigh], nil), 50)
	for _, phase := range append(r.openPhases(), phaseClosed) {
		keep := untraced
		if phase != phaseClosed { // traced runs trace the whole open loop
			keep = nil
		}
		p, v := tail(millis(st.recs[phase], keep))
		res.values[phaseNames[phase]+"_tail_ms"] = v
		res.info = append(res.info, fmt.Sprintf("%s: %d requests, tail is p%g", phaseNames[phase], len(st.recs[phase]), p))
	}
	// How late the dispatcher released requests; past 1 ms at p99 (or the
	// highest percentile the sample supports, when lower) the open-loop
	// latencies measure the generator, not the daemons.
	var lags []float64
	for _, phase := range r.openPhases() {
		for _, rec := range st.recs[phase] {
			lags = append(lags, float64(rec.sent.Sub(rec.due))/1e6)
		}
	}
	if len(lags) == 0 {
		return
	}
	slices.Sort(lags)
	p, v := tail(lags)
	res.values["gen.lag_tail_ms"] = v
	if p = min(p, 99); nearestRank(lags, p) > 1 {
		res.invalid = append(res.invalid, fmt.Sprintf("open loop: generator lag p%g = %.3f ms exceeds 1 ms", p, nearestRank(lags, p)))
	}
	res.values["gen.backlog_end"] = float64(st.backlog)
}

// checkCacheHeaders requires the workload's cache outcome on every answer.
func (r *runner) checkCacheHeaders(res *result, st *phaseStats) {
	if r.w.wantCache == "" {
		return
	}
	bad := 0
	for _, recs := range st.recs {
		for _, rec := range recs {
			if rec.err == nil && rec.cache != r.w.wantCache {
				bad++
			}
		}
	}
	if bad > 0 {
		res.failures = append(res.failures, fmt.Sprintf("%d responses lacked X-Response-Cache: %s", bad, r.w.wantCache))
		res.failed += bad
	}
}
