package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hybridperf/internal/cluster"
	"hybridperf/internal/telemetry"
)

// quiet is a logger that drops everything — gateway tests exercise error
// paths on purpose, and their log noise would drown the test output.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newShard boots one real hybridperfd replica on an httptest listener.
// All shards share seed 42, so their answers are bit-identical — the
// property every merge test leans on.
func newShard(t testing.TB) (*telemetry.Server, *httptest.Server) {
	t.Helper()
	s := telemetry.NewServer(telemetry.Config{
		Workers:       2,
		Seed:          42,
		ResponseCache: 64,
		Logger:        quiet(),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCluster boots n shards (clustered among themselves, as deployed)
// and a gateway fronting them.
func newCluster(t testing.TB, n int) (*Gateway, *httptest.Server, []*httptest.Server) {
	t.Helper()
	shards := make([]*httptest.Server, n)
	servers := make([]*telemetry.Server, n)
	peers := make([]string, n)
	for i := range shards {
		servers[i], shards[i] = newShard(t)
		peers[i] = shards[i].URL
	}
	for i, s := range servers {
		if err := s.SetCluster(peers[i], peers); err != nil {
			t.Fatal(err)
		}
	}
	g, err := New(peers, quiet())
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)
	return g, gts, shards
}

func post(t testing.TB, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// batchBody spans both systems and two programs, so a two-shard cluster
// almost surely splits it — and the merge has real work to do.
const batchBody = `{"class":"S","tuples":[
	{"system":"xeon","program":"SP","nodes":2,"cores":8,"freq_ghz":1.8},
	{"system":"xeon","program":"SP","nodes":1,"cores":4,"freq_ghz":1.2},
	{"system":"arm","program":"CP","nodes":2,"cores":4,"freq_ghz":1.4},
	{"system":"arm","program":"CP","nodes":4,"cores":2,"freq_ghz":1.1},
	{"system":"xeon","program":"CP","nodes":1,"cores":8,"freq_ghz":1.5}
]}`

// TestBatchThroughGatewayMatchesSingle: the merge contract. A batch
// spanning several (system, program) groups, fanned across two shards
// and merged, must be byte-identical to the same request served by one
// standalone daemon — same canonical order, same fragments, same
// summary.
func TestBatchThroughGatewayMatchesSingle(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	_, single := newShard(t)

	resp, viaGateway := post(t, gts.URL+"/v1/batch", batchBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway batch: status %d: %s", resp.StatusCode, viaGateway)
	}
	resp, direct := post(t, single.URL+"/v1/batch", batchBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct batch: status %d: %s", resp.StatusCode, direct)
	}
	if string(viaGateway) != string(direct) {
		t.Errorf("gateway-merged batch differs from single-daemon batch:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
}

// TestBatchStreamedThroughGateway: the NDJSON shape survives the fan-out
// — line for line identical to a standalone daemon's stream.
func TestBatchStreamedThroughGateway(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	_, single := newShard(t)

	hdr := map[string]string{"Accept": "application/x-ndjson"}
	resp, viaGateway := post(t, gts.URL+"/v1/batch", batchBody, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway stream: status %d: %s", resp.StatusCode, viaGateway)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("streamed Content-Type = %q", ct)
	}
	_, direct := post(t, single.URL+"/v1/batch", batchBody, hdr)
	if string(viaGateway) != string(direct) {
		t.Errorf("gateway NDJSON differs from single-daemon NDJSON:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
}

// TestSweepThroughGatewayMatchesSingle: a sweep partitioned across both
// shards and re-merged (frontier recomputed at the gateway) must equal
// the standalone daemon's sweep byte-for-byte, deadline/budget picks
// included.
func TestSweepThroughGatewayMatchesSingle(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	_, single := newShard(t)

	body := `{"system":"xeon","program":"SP","class":"S","pow2":true,"deadline_s":1e9,"budget_j":1e12}`
	resp, viaGateway := post(t, gts.URL+"/v1/sweep", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway sweep: status %d: %s", resp.StatusCode, viaGateway)
	}
	resp, direct := post(t, single.URL+"/v1/sweep", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct sweep: status %d: %s", resp.StatusCode, direct)
	}
	if string(viaGateway) != string(direct) {
		t.Errorf("gateway-merged sweep differs from single-daemon sweep:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
}

// partialBatchDoc is the merged answer shape with the degradation
// annotations.
type partialBatchDoc struct {
	Class   string `json:"class"`
	Count   int    `json:"count"`
	Groups  int    `json:"groups"`
	Results []struct {
		System  string `json:"system"`
		Program string `json:"program"`
	} `json:"results"`
	ShardErrors []struct {
		Shard  string `json:"shard"`
		Error  string `json:"error"`
		Tuples int    `json:"tuples"`
	} `json:"shard_errors"`
}

// TestBatchPartialOnDeadShard: kill one shard and send a batch spanning
// every (system, program) pair. The answer must carry the surviving
// shards' results plus one annotation for the dead shard — or, in the
// (hash-dependent) case where the dead shard owned every pair, a 503.
func TestBatchPartialOnDeadShard(t *testing.T) {
	g, gts, shards := newCluster(t, 2)

	pairs := [][2]string{{"xeon", "SP"}, {"xeon", "CP"}, {"xeon", "LB"}, {"arm", "SP"}, {"arm", "CP"}, {"arm", "LB"}}
	dead := g.ring.Owner(cluster.ModelKey("xeon", "SP"))
	surviving := 0
	for _, p := range pairs {
		if g.ring.Owner(cluster.ModelKey(p[0], p[1])) != dead {
			surviving++
		}
	}
	for _, ts := range shards {
		if ts.URL == dead {
			ts.Close()
		}
	}

	var sb strings.Builder
	sb.WriteString(`{"class":"S","tuples":[`)
	for i, p := range pairs {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"system":"` + p[0] + `","program":"` + p[1] + `","nodes":1,"cores":1,"freq_ghz":0}`)
	}
	sb.WriteString(`]}`)

	resp, raw := post(t, gts.URL+"/v1/batch", sb.String(), nil)
	if surviving == 0 {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("all owners dead: status %d, want 503: %s", resp.StatusCode, raw)
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: status %d, want 200: %s", resp.StatusCode, raw)
	}
	var doc partialBatchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unparseable partial answer: %v\n%s", err, raw)
	}
	if doc.Count != surviving || len(doc.Results) != surviving {
		t.Errorf("partial answer has %d results (count %d), want %d", len(doc.Results), doc.Count, surviving)
	}
	for _, r := range doc.Results {
		if g.ring.Owner(cluster.ModelKey(r.System, r.Program)) == dead {
			t.Errorf("result %s/%s came from a dead shard's key", r.System, r.Program)
		}
	}
	if len(doc.ShardErrors) != 1 {
		t.Fatalf("shard_errors = %+v, want exactly the dead shard", doc.ShardErrors)
	}
	if doc.ShardErrors[0].Shard != dead {
		t.Errorf("shard_errors names %q, dead shard is %q", doc.ShardErrors[0].Shard, dead)
	}
	if doc.ShardErrors[0].Tuples != len(pairs)-surviving {
		t.Errorf("shard_errors tuples = %d, want %d", doc.ShardErrors[0].Tuples, len(pairs)-surviving)
	}
}

// TestBatchAllOwnersDead: a batch whose every tuple is owned by the dead
// shard has nothing to degrade to — 503, not an empty 200.
func TestBatchAllOwnersDead(t *testing.T) {
	g, gts, shards := newCluster(t, 2)
	dead := g.ring.Owner(cluster.ModelKey("xeon", "SP"))
	for _, ts := range shards {
		if ts.URL == dead {
			ts.Close()
		}
	}
	body := `{"class":"S","tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":1,"freq_ghz":0}]}`
	resp, raw := post(t, gts.URL+"/v1/batch", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestPredictFailsOver: killing the owner of a key must not kill point
// requests for it — the gateway walks the ring to the next replica,
// which computes the identical answer.
func TestPredictFailsOver(t *testing.T) {
	g, gts, shards := newCluster(t, 2)
	_, single := newShard(t)

	body := `{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}`
	owner := g.ring.Owner(cluster.ModelKey("xeon", "SP"))
	for _, ts := range shards {
		if ts.URL == owner {
			ts.Close()
		}
	}
	resp, viaGateway := post(t, gts.URL+"/v1/predict", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover predict: status %d: %s", resp.StatusCode, viaGateway)
	}
	resp, direct := post(t, single.URL+"/v1/predict", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct predict: status %d: %s", resp.StatusCode, direct)
	}
	if string(viaGateway) != string(direct) {
		t.Errorf("failover prediction differs from direct:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
}

// TestSweepFailsOver: a sweep names one model key, so it routes to the
// key's owner and fails over along the ring like a point request. With
// the owner killed the next replica answers in full — byte-identical to
// a single daemon, no shard_errors — and with every replica down the
// gateway answers 503 with a Retry-After hint.
func TestSweepFailsOver(t *testing.T) {
	g, gts, shards := newCluster(t, 2)
	_, single := newShard(t)

	body := `{"system":"arm","program":"CP","class":"S","pow2":true,"deadline_s":1e9}`
	owner := g.ring.Owner(cluster.ModelKey("arm", "CP"))
	for _, ts := range shards {
		if ts.URL == owner {
			ts.Close()
		}
	}
	resp, viaGateway := post(t, gts.URL+"/v1/sweep", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover sweep: status %d: %s", resp.StatusCode, viaGateway)
	}
	_, direct := post(t, single.URL+"/v1/sweep", body, nil)
	if string(viaGateway) != string(direct) {
		t.Errorf("failover sweep differs from single-daemon sweep:\ngateway: %s\ndirect:  %s", viaGateway, direct)
	}
	if bytes.Contains(viaGateway, []byte("shard_errors")) {
		t.Errorf("failover sweep carries shard_errors: %s", viaGateway)
	}

	for _, ts := range shards {
		ts.Close()
	}
	resp, raw := post(t, gts.URL+"/v1/sweep", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all replicas down: status %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestGatewayRejectsBadRequests: request validation mirrors the shards,
// without a cluster round trip — and a shard-detected 4xx (invalid
// config, which the gateway does not pre-validate) relays as a 4xx, not
// as a degraded partial answer.
func TestGatewayRejectsBadRequests(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown system", "/v1/batch", `{"tuples":[{"system":"cray","program":"SP","nodes":1,"cores":1}]}`, 400},
		{"unknown program", "/v1/batch", `{"tuples":[{"system":"xeon","program":"NOPE","nodes":1,"cores":1}]}`, 400},
		{"empty batch", "/v1/batch", `{"tuples":[]}`, 400},
		{"unknown field", "/v1/batch", `{"tuplez":[]}`, 400},
		{"invalid config relayed", "/v1/batch", `{"tuples":[{"system":"xeon","program":"SP","nodes":1,"cores":99,"freq_ghz":1.8}]}`, 400},
		{"sweep unknown system", "/v1/sweep", `{"system":"cray","program":"SP"}`, 400},
		{"sweep bad class", "/v1/sweep", `{"system":"xeon","program":"SP","class":"Z"}`, 400},
		{"sweep huge", "/v1/sweep", `{"system":"xeon","program":"SP","max_nodes":99999}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, gts.URL+tc.url, tc.body, nil)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
		})
	}
}

// TestReadyz: ready while any shard lives, 503 once the cluster is gone.
func TestReadyz(t *testing.T) {
	_, gts, shards := newCluster(t, 2)
	resp, err := http.Get(gts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with live shards: status %d", resp.StatusCode)
	}
	for _, ts := range shards {
		ts.Close()
	}
	resp, err = http.Get(gts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead cluster: status %d", resp.StatusCode)
	}
}

// TestSystemsProxy: the capability document passes through, ETag intact.
func TestSystemsProxy(t *testing.T) {
	_, gts, _ := newCluster(t, 2)
	resp, err := http.Get(gts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("systems: status %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("systems proxy dropped the ETag")
	}
	var doc struct {
		Systems []json.RawMessage `json:"systems"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Systems) == 0 {
		t.Errorf("systems document unusable: %v\n%s", err, raw)
	}
}

// TestEngineFieldBoundary pins the optional "engine" field at the API
// boundary on every model route: "goroutine" names the removed engine in
// a structured 400 that the gateway relays verbatim, and "sequential"
// answers byte-identically to a body without the field — on a single
// daemon and through the gateway alike.
func TestEngineFieldBoundary(t *testing.T) {
	_, single := newShard(t)
	_, gts, _ := newCluster(t, 2)
	for _, tc := range []struct{ route, body string }{
		{"/v1/predict", `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"freq_ghz":1.8%s}`},
		{"/v1/batch", `{"class":"S","tuples":[{"system":"xeon","program":"SP","nodes":2,"cores":2,"freq_ghz":1.8},{"system":"arm","program":"CP","nodes":2,"cores":2,"freq_ghz":1.4}]%s}`},
		{"/v1/sweep", `{"system":"arm","program":"CP","class":"S","pow2":true%s}`},
		{"/v1/advise", `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2%s}`},
	} {
		t.Run(strings.TrimPrefix(tc.route, "/v1/"), func(t *testing.T) {
			with := func(engine string) string { return fmt.Sprintf(tc.body, engine) }
			resp, want := post(t, single.URL+tc.route, with(`,"engine":"goroutine"`), nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("goroutine engine: status %d, want 400: %s", resp.StatusCode, want)
			}
			var env struct {
				Error  string `json:"error"`
				Status int    `json:"status"`
			}
			if err := json.Unmarshal(want, &env); err != nil || env.Status != http.StatusBadRequest ||
				!strings.Contains(env.Error, `"goroutine"`) || !strings.Contains(env.Error, "removed") {
				t.Fatalf("goroutine engine: envelope %s does not name the removal (%v)", want, err)
			}
			resp, got := post(t, gts.URL+tc.route, with(`,"engine":"goroutine"`), nil)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(got, want) {
				t.Errorf("gateway did not relay the 400 verbatim: status %d\n got  %s\n want %s", resp.StatusCode, got, want)
			}

			resp, bare := post(t, single.URL+tc.route, with(""), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("no engine field: status %d: %s", resp.StatusCode, bare)
			}
			for _, base := range []string{single.URL, gts.URL} {
				for _, engine := range []string{"", `,"engine":"sequential"`} {
					resp, got := post(t, base+tc.route, with(engine), nil)
					if resp.StatusCode != http.StatusOK || !bytes.Equal(got, bare) {
						t.Errorf("%s%s with %q: status %d, body differs from the engine-less answer:\n got  %s\n want %s",
							base, tc.route, engine, resp.StatusCode, got, bare)
					}
				}
			}
		})
	}
}
