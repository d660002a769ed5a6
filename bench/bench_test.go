package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testShards are fixed shard URLs, so gateway-fanout's ownership split is
// the same in every test.
var testShards = []string{"http://127.0.0.1:18470", "http://127.0.0.1:18471"}

func newTestGenerator(t *testing.T, w *workload, seed int64) *generator {
	t.Helper()
	cat, err := newCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(w, seed, cat, testShards)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stream concatenates the first n requests of every phase.
func stream(g *generator, n int) []byte {
	var b bytes.Buffer
	for phase := 0; phase < numPhases; phase++ {
		for i := 0; i < n; i++ {
			req := g.request(phase, i)
			b.WriteString(routes[req.kind])
			b.Write(req.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSeedDeterminesStream(t *testing.T) {
	for _, w := range workloads {
		a := stream(newTestGenerator(t, w, 1), 300)
		if b := stream(newTestGenerator(t, w, 1), 300); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request streams", w.name)
		}
		if c := stream(newTestGenerator(t, w, 2), 300); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.name)
		}
	}
}

// TestBodiesAreValid decodes every generated body and checks its
// coordinates exist on the named system.
func TestBodiesAreValid(t *testing.T) {
	for _, w := range workloads {
		g := newTestGenerator(t, w, 7)
		for phase := 0; phase < numPhases; phase++ {
			for i := 0; i < 200; i++ {
				req := g.request(phase, i)
				var in requestBody
				if err := decodeStrict(req.body, &in); err != nil {
					t.Fatalf("%s: body %q: %v", w.name, req.body, err)
				}
				tuples := in.Tuples
				if req.kind == kPredict {
					tuples = []tupleBody{in.tupleBody}
				}
				for _, tu := range tuples {
					if err := g.cat.prof[tu.System].ValidateConfig(tu.config()); err != nil {
						t.Fatalf("%s: body %q: %v", w.name, req.body, err)
					}
				}
			}
		}
	}
}

func TestHotPoolFitsResponseCache(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "cmd", "hybridperfd", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`"response-cache-size", (\d+)`).FindSubmatch(src)
	if m == nil {
		t.Fatal("hybridperfd declares no -response-cache-size default")
	}
	capacity, _ := strconv.Atoi(string(m[1]))
	g := newTestGenerator(t, workloads[1], 1)
	if len(g.hotPool) > capacity {
		t.Errorf("serve-hot pool holds %d bodies, the default response cache %d", len(g.hotPool), capacity)
	}
}

func TestAdviseKeysUnique(t *testing.T) {
	g := newTestGenerator(t, mustWorkload(t, "advise-fresh"), 3)
	seen := map[adviseKey]bool{}
	for _, k := range g.advise {
		if seen[k] {
			t.Fatalf("advise key %+v appears twice", k)
		}
		seen[k] = true
	}
	if len(seen) != 3456 {
		t.Errorf("%d advise keys, want 3456", len(seen))
	}
	// The phases start whole rounds apart and never share a key.
	for phase := 1; phase < numPhases; phase++ {
		if adviseStart[phase]%adviseStrata != 0 || adviseStart[phase] <= adviseStart[phase-1] {
			t.Errorf("phase %s starts at %d", phaseNames[phase], adviseStart[phase])
		}
	}
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPoissonDues(t *testing.T) {
	const rate, window = 2000.0, 5 * time.Second
	a := poissonDues(1, phaseLow, 0, rate, window)
	b := poissonDues(1, phaseLow, 0, rate, window)
	if len(a) != len(b) {
		t.Fatal("same seed, different schedules")
	}
	for i := range a {
		if a[i] != b[i] || a[i] < 0 || a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("due %d = %v (other run %v)", i, a[i], b[i])
		}
	}
	if want := rate * window.Seconds(); math.Abs(float64(len(a))-want) > 4*math.Sqrt(want) {
		t.Errorf("%d arrivals in %v at %g/s", len(a), window, rate)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	// 100 samples: p90 has 10 beyond it, p95 only 5.
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 100 = p%g %g, want p90 90", p, v)
	}
	if p, _ := tail(make([]float64, 1000)); p != 99 {
		t.Errorf("tail of 1000 = p%g, want p99", p)
	}
	if p, v := tail(xs[:5]); p != 50 || v != 3 {
		t.Errorf("tail of 5 = p%g %g, want the median", p, v)
	}
}

// fakeClock jumps on Sleep; the test's do function advances it too.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopTimesFromDue sends a burst of five requests due at once
// over one connection, each taking 10 ms: none is dropped, the k-th one's
// latency counts the k-1 it queued behind, and four were still waiting
// when the (instant) arrival window closed.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	const svc = 10 * time.Millisecond
	var mu sync.Mutex
	var sent []int
	recs := openLoop(clk, make([]time.Duration, 5), 1, func(i int) outcome {
		mu.Lock()
		sent = append(sent, i)
		mu.Unlock()
		clk.advance(svc)
		return outcome{}
	})
	if len(sent) != 5 {
		t.Fatalf("sent %d of 5 requests", len(sent))
	}
	for k, r := range recs {
		if want := time.Duration(k+1) * svc; r.latency() != want {
			t.Errorf("request %d latency %v, want %v", k, r.latency(), want)
		}
	}
	if got := backlog(recs, recs[0].due); got != 4 {
		t.Errorf("backlog at the window's end = %d, want 4", got)
	}
}

// TestOpenLoopSleepsUntilDue spaces arrivals out: each request is
// released exactly at its due time on the fake clock.
func TestOpenLoopSleepsUntilDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	dues := []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond}
	recs := openLoop(clk, dues, 2, func(int) outcome { return outcome{} })
	for i, r := range recs {
		if got := r.due.Sub(time.Unix(1000, 0)); got != dues[i] {
			t.Errorf("request %d due at +%v, want +%v", i, got, dues[i])
		}
		if r.sent.Before(r.due) {
			t.Errorf("request %d released %v before it was due", i, r.due.Sub(r.sent))
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	recs := closedLoop(clk, 100*time.Millisecond, 1, func(int) outcome {
		clk.advance(10 * time.Millisecond)
		return outcome{}
	})
	if len(recs) != 10 {
		t.Errorf("%d requests in 100 ms at 10 ms each, want 10", len(recs))
	}
	for i, r := range recs {
		if r.i != i || r.latency() != 10*time.Millisecond {
			t.Errorf("record %d = index %d latency %v", i, r.i, r.latency())
		}
	}
}

// TestChunkCounts counts the successful requests that ended inside a
// chunk; failures and requests ending before or after it count in none.
func TestChunkCounts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int, err error) record {
		return record{end: t0.Add(time.Duration(ms) * time.Millisecond), outcome: outcome{err: err}}
	}
	recs := []record{at(-1, nil), at(0, nil), at(99, nil), at(150, errFailed), at(299, nil), at(300, nil)}
	if n := completedWithin(recs, t0, 300*time.Millisecond); n != 3 {
		t.Errorf("%d requests completed within the chunk, want 3", n)
	}
}

// TestHostRefs measures every host reference once: each must run and
// report a positive speed, and stopping must release what it started.
func TestHostRefs(t *testing.T) {
	for _, ref := range []*hostRef{computeRef, httpRef} {
		m, err := newRefMeter(ref, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.speed()
		m.stop()
		if err != nil || !(s > 0) {
			t.Errorf("%s reference: speed %g, error %v", ref.name, s, err)
		}
	}
	for _, w := range workloads {
		if w.speedRef == nil {
			t.Errorf("workload %s has no host reference", w.name)
		}
	}
}

// TestKeepDeduplicates retains one sample per distinct (request, answer)
// pair but counts every draw.
func TestKeepDeduplicates(t *testing.T) {
	r := newRunner(context.Background(), options{}, mustWorkload(t, "serve-hot"), nil)
	a, b := request{kind: kBatch, body: []byte(`{"a":1}`)}, request{kind: kBatch, body: []byte(`{"a":2}`)}
	for i, s := range []sample{{req: a, body: []byte("x")}, {req: a, body: []byte("x")}, {req: b, body: []byte("x")}, {req: a, body: []byte("y")}} {
		s.i = i
		r.keep(s)
	}
	if r.sampled != 4 || len(r.samples) != 3 || r.samples[1].i != 2 {
		t.Errorf("kept %d of %d draws (%+v), want 3 of 4", len(r.samples), r.sampled, r.samples)
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json is well formed
// and lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string   `json:"name"`
			Unit   string   `json:"unit"`
			Better string   `json:"better"`
			Bound  *float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(doc.EndToEnd))
	}
	if len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(doc.PerLayer))
	}
	if doc.RunSeconds < timedPhases || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	var e2e, layer []metric
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit, m.Better)
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json metrics differ from the ones the benchmark prints")
	}
	var names []string
	for _, w := range doc.Workloads {
		check(w.Name, "-", "lower")
		names = append(names, w.Name)
		if wl, err := workloadByName(w.Name); err != nil || wl.why != w.Why {
			t.Errorf("workload %s: %v, or its why differs from the benchmark's", w.Name, err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(names), len(workloads))
	}
}
