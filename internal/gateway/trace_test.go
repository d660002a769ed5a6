package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hybridperf/internal/cluster"
	"hybridperf/internal/telemetry"
)

// logBuffer is a concurrency-safe sink for one process's slog output, so
// the chain test can grep each hop's access log independently.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// newTracedCluster boots two shards and a gateway, every hop logging
// into its own buffer and the gateway sampling every fresh trace.
func newTracedCluster(t *testing.T) (g *Gateway, gts *httptest.Server, bufs []*logBuffer, peers []string) {
	t.Helper()
	const n = 2
	bufs = make([]*logBuffer, n+1) // [0] gateway, [1..] shards
	for i := range bufs {
		bufs[i] = &logBuffer{}
	}
	shards := make([]*httptest.Server, n)
	servers := make([]*telemetry.Server, n)
	peers = make([]string, n)
	for i := range shards {
		servers[i] = telemetry.NewServer(telemetry.Config{
			Workers:       2,
			Seed:          42,
			ResponseCache: 64,
			Logger:        slog.New(slog.NewTextHandler(bufs[i+1], nil)),
		})
		servers[i].SetReady(true)
		shards[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(shards[i].Close)
		peers[i] = shards[i].URL
	}
	for i, s := range servers {
		if err := s.SetCluster(peers[i], peers); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New(peers, slog.New(slog.NewTextHandler(bufs[0], nil)))
	if err != nil {
		t.Fatal(err)
	}
	g.SetTraceSample(1)
	gts = httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return g, gts, bufs, peers
}

// splitBatchBody builds a batch with one tuple owned by each shard, so
// the fan-out deterministically spans the whole cluster.
func splitBatchBody(t *testing.T, g *Gateway, peers []string) string {
	t.Helper()
	perPeer := map[string][2]string{}
	for _, sys := range []string{"xeon", "arm"} {
		for _, prog := range []string{"SP", "CP", "LB", "FT"} {
			owner := g.ring.Owner(cluster.ModelKey(sys, prog))
			if _, ok := perPeer[owner]; !ok {
				perPeer[owner] = [2]string{sys, prog}
			}
		}
	}
	if len(perPeer) < len(peers) {
		t.Fatalf("catalogue keys cover %d of %d shards", len(perPeer), len(peers))
	}
	var tuples []string
	for _, p := range peers {
		sys, prog := perPeer[p][0], perPeer[p][1]
		freq := 1.8
		if sys == "arm" {
			freq = 1.4
		}
		tuples = append(tuples, fmt.Sprintf(`{"system":%q,"program":%q,"nodes":2,"cores":2,"freq_ghz":%g}`, sys, prog, freq))
	}
	return `{"class":"A","tuples":[` + strings.Join(tuples, ",") + `]}`
}

// chromeDoc is the stitched export's shape, as a client sees it.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestGatewayStitchedTrace: the acceptance chain. One sampled batch
// through the gateway spanning both shards must (a) log the same trace
// id at every hop — gateway and both shards — (b) carry cost headers
// equal to the merged body's own sums, and (c) stitch into one
// Chrome-trace file whose lanes come from the gateway and both shards,
// with at least one engine per-rank phase lane.
func TestGatewayStitchedTrace(t *testing.T) {
	g, gts, bufs, peers := newTracedCluster(t)
	body := splitBatchBody(t, g, peers)

	resp, raw := post(t, gts.URL+"/v1/batch", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	tc, ok := telemetry.ParseTraceparent(resp.Header.Get(telemetry.TraceparentHeader))
	if !ok {
		t.Fatalf("gateway response traceparent unparseable: %q", resp.Header.Get(telemetry.TraceparentHeader))
	}
	if !tc.Sampled {
		t.Fatal("sampling gateway minted an unsampled trace")
	}
	id := tc.TraceIDString()

	// (a) one grep, every hop.
	for i, buf := range bufs {
		hop := "gateway"
		if i > 0 {
			hop = fmt.Sprintf("shard %d", i-1)
		}
		if !strings.Contains(buf.String(), "trace="+id) {
			t.Errorf("%s log has no line with trace=%s:\n%s", hop, id, buf.String())
		}
	}

	// (b) headers equal the merged body's sums, float-exact.
	var doc struct {
		Results []struct {
			TimeS   float64 `json:"time_s"`
			EnergyJ float64 `json:"energy_j"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var simS, energyJ float64
	for _, r := range doc.Results {
		simS += r.TimeS
		energyJ += r.EnergyJ
	}
	if got, want := resp.Header.Get(telemetry.PredictionsHeader), strconv.Itoa(len(doc.Results)); got != want {
		t.Errorf("%s = %q, merged body has %s results", telemetry.PredictionsHeader, got, want)
	}
	if got, want := resp.Header.Get(telemetry.SimSecondsHeader), strconv.FormatFloat(simS, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, merged body sums to %q", telemetry.SimSecondsHeader, got, want)
	}
	if got, want := resp.Header.Get(telemetry.EnergyHeader), strconv.FormatFloat(energyJ, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, merged body sums to %q", telemetry.EnergyHeader, got, want)
	}

	// (c) the stitch: gateway + both shards as processes, rank lanes from
	// the cold characterisations.
	stResp, err := http.Get(gts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	stRaw, _ := io.ReadAll(stResp.Body)
	if stResp.StatusCode != http.StatusOK {
		t.Fatalf("stitched trace: status %d: %s", stResp.StatusCode, stRaw)
	}
	var chrome chromeDoc
	if err := json.Unmarshal(stRaw, &chrome); err != nil {
		t.Fatalf("stitched trace unparseable: %v\n%s", err, stRaw)
	}
	sources := map[string]bool{}
	rankLanes, fanouts, handlerSpans := 0, 0, 0
	for _, e := range chrome.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			if name, _ := e.Args["name"].(string); name != "" {
				sources[name] = true
			}
		case e.Ph == "M" && e.Name == "thread_name":
			if name, _ := e.Args["name"].(string); strings.HasPrefix(name, "rank ") {
				rankLanes++
			}
		case e.Ph == "X" && strings.HasPrefix(e.Name, "fanout "):
			fanouts++
		case e.Ph == "X" && e.Cat == "handler":
			handlerSpans++
		}
	}
	if !sources["gateway"] {
		t.Errorf("stitch has no gateway lane group; sources %v", sources)
	}
	shardSources := 0
	for _, p := range peers {
		if sources[p] {
			shardSources++
		}
	}
	if shardSources < 2 {
		t.Errorf("stitch spans %d shards, want 2; sources %v", shardSources, sources)
	}
	if rankLanes == 0 {
		t.Error("stitch has no engine per-rank phase lane")
	}
	if fanouts < 2 {
		t.Errorf("stitch shows %d gateway fan-out spans, want >= 2", fanouts)
	}
	if handlerSpans == 0 {
		t.Error("stitch shows no shard handler spans")
	}
}

// TestGatewayTraceByIDUnknown: an id no hop recorded is a 404 — the
// gateway must not return an empty stitch.
func TestGatewayTraceByIDUnknown(t *testing.T) {
	_, gts, _, _ := newTracedCluster(t)
	resp, err := http.Get(gts.URL + "/debug/trace/deadbeefdeadbeefdeadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestGatewayPredictAttribution: the gateway relays the shard's cost
// numbers onto its own merged-answer headers — a point predict's headers
// equal the body it forwarded.
func TestGatewayPredictAttribution(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	body := `{"system":"xeon","program":"SP","class":"A","nodes":2,"cores":4,"freq_ghz":1.8}`
	resp, raw := post(t, gts.URL+"/v1/predict", body, nil)
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
	if got := resp.Header.Get(telemetry.PredictionsHeader); got != "1" {
		t.Errorf("%s = %q, want 1", telemetry.PredictionsHeader, got)
	}
	if got, want := resp.Header.Get(telemetry.SimSecondsHeader), strconv.FormatFloat(pred.TimeS, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, body says %q", telemetry.SimSecondsHeader, got, want)
	}
	if got, want := resp.Header.Get(telemetry.EnergyHeader), strconv.FormatFloat(pred.EnergyJ, 'g', -1, 64); got != want {
		t.Errorf("%s = %q, body says %q", telemetry.EnergyHeader, got, want)
	}
}

// TestGatewayReadyzPerPeer: /readyz reports each shard by name. With
// every shard up the document says so and the per-peer gauge reads 1;
// killing one shard flips exactly its entry (and gauge) while the
// gateway stays ready on the survivor.
func TestGatewayReadyzPerPeer(t *testing.T) {
	g, gts, shards := newCluster(t, 2)
	readyDoc := func(wantStatus int) (doc struct {
		Ready bool `json:"ready"`
		Up    int  `json:"up"`
		Peers []struct {
			Peer string `json:"peer"`
			Up   bool   `json:"up"`
		} `json:"peers"`
	}) {
		resp, err := http.Get(gts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("readyz status %d, want %d: %s", resp.StatusCode, wantStatus, raw)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("readyz Content-Type = %q", ct)
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("readyz not JSON: %v\n%s", err, raw)
		}
		return doc
	}

	doc := readyDoc(http.StatusOK)
	if !doc.Ready || doc.Up != 2 || len(doc.Peers) != 2 {
		t.Fatalf("all-up readyz = %+v", doc)
	}
	for _, p := range doc.Peers {
		if !p.Up {
			t.Errorf("peer %s reported down while up", p.Peer)
		}
		if v := g.mPeerUp.With(p.Peer).Value(); v != 1 {
			t.Errorf("peer_up{%s} = %d, want 1", p.Peer, v)
		}
	}

	dead := shards[0].URL
	shards[0].Close()
	doc = readyDoc(http.StatusOK)
	if !doc.Ready || doc.Up != 1 {
		t.Fatalf("one-down readyz = %+v", doc)
	}
	for _, p := range doc.Peers {
		wantUp := p.Peer != dead
		if p.Up != wantUp {
			t.Errorf("peer %s up=%v, want %v", p.Peer, p.Up, wantUp)
		}
		var wantGauge int64
		if wantUp {
			wantGauge = 1
		}
		if v := g.mPeerUp.With(p.Peer).Value(); v != wantGauge {
			t.Errorf("peer_up{%s} = %d, want %d", p.Peer, v, wantGauge)
		}
	}
}

// TestStitchAnchorsPhasesAtFirstCampaign: a hop that ran two cold
// campaigns for one request carries the first campaign's timeline (the
// first attach wins), so the stitch anchors it at the first
// characterisation span, not the last.
func TestStitchAnchorsPhasesAtFirstCampaign(t *testing.T) {
	p := &telemetry.TracePayload{
		Source: "shard",
		Spans: []telemetry.TraceSpan{
			{Name: "characterize xeon/LU", Cat: "model", StartUS: 1_000_000, EndUS: 2_000_000},
			{Name: "characterize xeon/SP", Cat: "model", StartUS: 2_000_000, EndUS: 3_000_000},
			{Name: "POST /v1/batch", Cat: "http", StartUS: 0, EndUS: 4_000_000},
		},
		PhaseLabel: "LU (2,1,1.8)",
		Phases:     []telemetry.TracePhase{{Rank: 0, Kind: "compute", StartS: 0, EndS: 0.5}},
	}
	procs := stitchProcesses([]*telemetry.TracePayload{p})
	if len(procs) != 1 || len(procs[0].Phases) != 1 {
		t.Fatalf("stitched %+v", procs)
	}
	if got := procs[0].PhaseOffset; got != 1 {
		t.Errorf("phase offset %g s, want 1 (the first characterisation span)", got)
	}
}
