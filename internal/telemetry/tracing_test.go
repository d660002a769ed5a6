package telemetry

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// newTracedServer builds a ready server sampling every locally minted
// trace (TraceSample 1), as the integration tests need deterministic
// sampling rather than a coin flip.
func newTracedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{
		Workers:       2,
		Seed:          42,
		ResponseCache: 128,
		TraceSample:   1,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getTracePayload pulls one hop's span payload for a trace id.
func getTracePayload(t *testing.T, base, traceID string) (*TracePayload, int) {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var p TracePayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("trace payload unparseable: %v\n%s", err, raw)
	}
	return &p, resp.StatusCode
}

func spanNames(p *TracePayload) []string {
	names := make([]string, len(p.Spans))
	for i, s := range p.Spans {
		names[i] = s.Cat + ":" + s.Name
	}
	return names
}

func hasSpan(p *TracePayload, cat, namePrefix string) bool {
	for _, s := range p.Spans {
		if s.Cat == cat && strings.HasPrefix(s.Name, namePrefix) {
			return true
		}
	}
	return false
}

// TestSampledPredictTracePayload: a cold predict on a sampling server
// leaves a pullable payload behind — http root, decode, the
// characterisation and predict model spans, render — with the engine's
// per-rank phase timeline attached, all under the trace id the response
// headers advertised.
func TestSampledPredictTracePayload(t *testing.T) {
	_, ts := newTracedServer(t)
	body := `{"system":"xeon","program":"SP","class":"A","nodes":2,"cores":2,"freq_ghz":1.8}`
	resp, raw := postJSON(t, ts.URL+"/v1/predict", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, raw)
	}
	tc, ok := ParseTraceparent(resp.Header.Get(TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent unparseable: %q", resp.Header.Get(TraceparentHeader))
	}
	if !tc.Sampled {
		t.Fatal("TraceSample=1 server minted an unsampled trace")
	}
	if want := tc.RequestID(); resp.Header.Get("X-Request-Id") != want {
		t.Errorf("X-Request-Id = %q, want the trace-derived %q", resp.Header.Get("X-Request-Id"), want)
	}

	p, status := getTracePayload(t, ts.URL, tc.TraceIDString())
	if status != http.StatusOK {
		t.Fatalf("/debug/trace/%s: status %d", tc.TraceIDString(), status)
	}
	if p.TraceID != tc.TraceIDString() {
		t.Errorf("payload trace id %q, want %q", p.TraceID, tc.TraceIDString())
	}
	if p.Source != "hybridperfd" {
		t.Errorf("unclustered source %q, want hybridperfd", p.Source)
	}
	for _, want := range [][2]string{
		{"http", "POST /v1/predict"},
		{"handler", "decode"},
		{"model", "characterize xeon/SP"},
		{"model", "predict xeon/SP"},
		{"handler", "render"},
	} {
		if !hasSpan(p, want[0], want[1]) {
			t.Errorf("missing span %s:%s in %v", want[0], want[1], spanNames(p))
		}
	}
	if len(p.Phases) == 0 {
		t.Error("cold sampled characterisation attached no engine phases")
	}
	if p.PhaseLabel == "" {
		t.Error("attached phases carry no label")
	}
	for _, ph := range p.Phases {
		if ph.Kind != "compute" && ph.Kind != "network" && ph.Kind != "memstall" {
			t.Fatalf("unknown phase kind %q", ph.Kind)
		}
	}
	// Every child nests inside the root span's interval.
	var root *TraceSpan
	for i := range p.Spans {
		if p.Spans[i].Cat == "http" {
			root = &p.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no http root span")
	}
	for _, s := range p.Spans {
		if s.StartUS < root.StartUS || s.EndUS > root.EndUS {
			t.Errorf("span %s:%s [%d,%d] escapes the root [%d,%d]",
				s.Cat, s.Name, s.StartUS, s.EndUS, root.StartUS, root.EndUS)
		}
	}
}

// TestArmedButUnsampledBitIdentical: a flags-00 traceparent on a
// TraceSample=1 server must not sample — the edge that minted the trace
// decided — and the body must be byte-identical to a tracing-off
// server's, the zero-cost-when-off contract.
func TestArmedButUnsampledBitIdentical(t *testing.T) {
	_, armed := newTracedServer(t)
	_, off := newTestServer(t) // TraceSample 0

	tc := NewTrace(false)
	body := `{"system":"arm","program":"CP","class":"A","nodes":2,"cores":2,"freq_ghz":1.4}`
	req, err := http.NewRequest(http.MethodPost, armed.URL+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rawArmed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("armed predict: status %d: %s", resp.StatusCode, rawArmed)
	}
	back, ok := ParseTraceparent(resp.Header.Get(TraceparentHeader))
	if !ok || back.Sampled {
		t.Errorf("hop escalated the edge's unsampled decision: %q", resp.Header.Get(TraceparentHeader))
	}
	if back.TraceID != tc.TraceID {
		t.Error("hop replaced the incoming trace id")
	}
	if _, status := getTracePayload(t, armed.URL, tc.TraceIDString()); status != http.StatusNotFound {
		t.Errorf("unsampled request left a payload behind (status %d, want 404)", status)
	}

	respOff, rawOff := postJSON(t, off.URL+"/v1/predict", body)
	if respOff.StatusCode != http.StatusOK {
		t.Fatalf("tracing-off predict: status %d: %s", respOff.StatusCode, rawOff)
	}
	if string(rawArmed) != string(rawOff) {
		t.Errorf("armed-but-unsampled body differs from tracing-off body:\narmed: %s\noff:   %s", rawArmed, rawOff)
	}
}

// TestTraceByIDUnknown: an id nobody recorded is a 404 with the JSON
// error envelope, not an empty stitch.
func TestTraceByIDUnknown(t *testing.T) {
	_, ts := newTracedServer(t)
	resp, err := http.Get(ts.URL + "/debug/trace/deadbeefdeadbeefdeadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, raw)
	}
	errorEnvelope(t, resp, raw)
}

// TestAttributionHeadersMatchBody: the cost headers are exact 'g'-format
// renderings of the body's own numbers — one prediction's time/energy on
// /v1/predict, the float-exact sum over results on /v1/batch — and a
// cache hit replays the attribution of the body it replays, bit for bit.
func TestAttributionHeadersMatchBody(t *testing.T) {
	s, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/predict", `{"system":"xeon","program":"SP","class":"A","nodes":2,"cores":4,"freq_ghz":1.8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, raw)
	}
	var pred struct {
		TimeS   float64 `json:"time_s"`
		EnergyJ float64 `json:"energy_j"`
	}
	if err := json.Unmarshal(raw, &pred); err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(PredictionsHeader); got != "1" {
		t.Errorf("%s = %q, want 1", PredictionsHeader, got)
	}
	if got, want := resp.Header.Get(SimSecondsHeader), strconv.FormatFloat(pred.TimeS, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, body says %q", SimSecondsHeader, got, want)
	}
	if got, want := resp.Header.Get(EnergyHeader), strconv.FormatFloat(pred.EnergyJ, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, body says %q", EnergyHeader, got, want)
	}
	if n := s.attrib["/v1/predict"].preds.Value(); n != 1 {
		t.Errorf("predictions series = %d, want 1", n)
	}
	if v := s.attrib["/v1/predict"].energy.Value(); v != pred.EnergyJ {
		t.Errorf("energy series = %g, want %g", v, pred.EnergyJ)
	}

	batch := `{"class":"A","tuples":[
		{"system":"xeon","program":"SP","nodes":1,"cores":2,"freq_ghz":1.8},
		{"system":"xeon","program":"SP","nodes":2,"cores":2,"freq_ghz":1.8},
		{"system":"arm","program":"CP","nodes":2,"cores":2,"freq_ghz":1.4}
	]}`
	checkBatch := func(label string) (hdr [3]string) {
		resp, raw := postJSON(t, ts.URL+"/v1/batch", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch: status %d: %s", label, resp.StatusCode, raw)
		}
		var doc struct {
			Results []struct {
				TimeS   float64 `json:"time_s"`
				EnergyJ float64 `json:"energy_j"`
			} `json:"results"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		// Sum in canonical body order — the same order the server summed
		// in, so float addition associates identically.
		var simS, energyJ float64
		for _, r := range doc.Results {
			simS += r.TimeS
			energyJ += r.EnergyJ
		}
		if got, want := resp.Header.Get(PredictionsHeader), strconv.Itoa(len(doc.Results)); got != want {
			t.Errorf("%s batch %s = %q, body has %s results", label, PredictionsHeader, got, want)
		}
		if got, want := resp.Header.Get(SimSecondsHeader), strconv.FormatFloat(simS, 'g', -1, 64); got != want {
			t.Errorf("%s batch %s = %q, body sums to %q", label, SimSecondsHeader, got, want)
		}
		if got, want := resp.Header.Get(EnergyHeader), strconv.FormatFloat(energyJ, 'g', -1, 64); got != want {
			t.Errorf("%s batch %s = %q, body sums to %q", label, EnergyHeader, got, want)
		}
		hdr[0] = resp.Header.Get(PredictionsHeader)
		hdr[1] = resp.Header.Get(SimSecondsHeader)
		hdr[2] = resp.Header.Get(EnergyHeader)
		return hdr
	}
	cold := checkBatch("cold")
	warm := checkBatch("cached") // replayed from the response cache
	if cold != warm {
		t.Errorf("cache hit changed the attribution: cold %v, warm %v", cold, warm)
	}
	if n := s.attrib["/v1/batch"].preds.Value(); n != 6 {
		t.Errorf("batch predictions series = %d, want 6 (3 cold + 3 replayed)", n)
	}
}

// TestAttributionSeriesExposed: the aggregate families appear on /metrics
// with per-route labels once a prediction is served.
func TestAttributionSeriesExposed(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, raw := postJSON(t, ts.URL+"/v1/predict", `{"system":"xeon","program":"SP","class":"A","nodes":1,"cores":2,"freq_ghz":1.8}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, raw)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, fam := range []string{
		"hybridperf_predictions_served_total",
		"hybridperf_simulated_seconds_total",
		"hybridperf_predicted_energy_joules_total",
	} {
		if !strings.Contains(string(raw), fam+`{route="/v1/predict"}`) {
			t.Errorf("/metrics missing %s for /v1/predict:\n%s", fam, grepLines(raw, fam))
		}
	}
}

func grepLines(raw []byte, needle string) string {
	var b strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.Contains(line, needle) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestForwardPropagatesTrace: a sampled request landing on the
// non-owning replica forwards with the same trace id — so both the proxy
// hop and the owner hop leave payloads pullable under one id, each from
// its own source, which is exactly what the gateway stitch relies on.
func TestForwardPropagatesTrace(t *testing.T) {
	_, _, tsA, tsB := newShardPair(t)
	sys, prog := keyOwnedBy(t, []string{tsA.URL, tsB.URL}, tsB.URL)

	tc := NewTrace(true)
	req, err := http.NewRequest(http.MethodPost, tsA.URL+"/v1/predict", strings.NewReader(predictBody(sys, prog)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded sampled predict: status %d: %s", resp.StatusCode, raw)
	}
	id := tc.TraceIDString()
	pA, status := getTracePayload(t, tsA.URL, id)
	if status != http.StatusOK {
		t.Fatalf("proxy hop recorded nothing for %s (status %d)", id, status)
	}
	pB, status := getTracePayload(t, tsB.URL, id)
	if status != http.StatusOK {
		t.Fatalf("owner hop recorded nothing for %s (status %d)", id, status)
	}
	if pA.Source != tsA.URL || pB.Source != tsB.URL {
		t.Errorf("payload sources %q/%q, want the shard identities %q/%q", pA.Source, pB.Source, tsA.URL, tsB.URL)
	}
	if !hasSpan(pB, "model", "characterize ") {
		t.Errorf("owner's payload has no characterisation span: %v", spanNames(pB))
	}
	if len(pB.Phases) == 0 {
		t.Error("owner's cold characterisation attached no phases")
	}
	if hasSpan(pA, "model", "characterize ") {
		t.Errorf("proxy characterised a forwarded key: %v", spanNames(pA))
	}
}
