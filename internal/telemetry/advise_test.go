package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hybridperf/internal/dvfs"
)

// adviseBody is the shared small-shape advise request: 2x2 on the xeon
// testbed at class S keeps the governed DES runs cheap.
const adviseBody = `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2}`

type adviseResponseJSON struct {
	System          string         `json:"system"`
	Program         string         `json:"program"`
	Class           string         `json:"class"`
	Nodes           int            `json:"nodes"`
	Cores           int            `json:"cores"`
	Static          predictionJSON `json:"static"`
	BaselineTimeS   float64        `json:"baseline_time_s"`
	BaselineEnergyJ float64        `json:"baseline_energy_j"`
	MaxSlowdownPct  float64        `json:"max_slowdown_pct"`
	Recommended     string         `json:"recommended"`
	Policies        []struct {
		Policy           string  `json:"policy"`
		TimeS            float64 `json:"time_s"`
		EnergyJ          float64 `json:"energy_j"`
		MakespanDeltaPct float64 `json:"makespan_delta_pct"`
		EnergyDeltaPct   float64 `json:"energy_delta_pct"`
		Schedule         []struct {
			Iter    int     `json:"iter"`
			FreqGHz float64 `json:"freq_ghz"`
		} `json:"schedule"`
	} `json:"policies"`
}

// TestAdviseEndpoint exercises the cold advisory path end to end: the
// full policy suite evaluated, per-policy schedules and deltas on the
// wire, attribution headers covering baseline + governed runs, the
// per-policy counters moving, and the repeat request replayed
// byte-identically from the response cache.
func TestAdviseEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/advise", adviseBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, raw)
	}
	var adv adviseResponseJSON
	if err := json.Unmarshal(raw, &adv); err != nil {
		t.Fatalf("decoding advise response: %v\n%s", err, raw)
	}
	if adv.System != "xeon" || adv.Program != "SP" || adv.Class != "S" || adv.Nodes != 2 || adv.Cores != 2 {
		t.Errorf("summary coordinates wrong: %+v", adv)
	}
	if got, want := len(adv.Policies), len(dvfs.Policies()); got != want {
		t.Fatalf("got %d policies, want the full suite of %d", got, want)
	}
	if !dvfs.ValidPolicy(adv.Recommended) {
		t.Errorf("recommended %q is not a policy", adv.Recommended)
	}
	if adv.MaxSlowdownPct != 5 {
		t.Errorf("default max_slowdown_pct = %g, want 5", adv.MaxSlowdownPct)
	}
	if !(adv.BaselineTimeS > 0) || !(adv.BaselineEnergyJ > 0) {
		t.Errorf("degenerate baseline: %+v", adv)
	}
	if adv.Static.Config.Nodes != 2 || adv.Static.Config.Cores != 2 {
		t.Errorf("static point off the requested shape: %+v", adv.Static.Config)
	}
	for i, p := range adv.Policies {
		if p.Policy != dvfs.Policies()[i] {
			t.Errorf("policy %d = %q, want suite order %v", i, p.Policy, dvfs.Policies())
		}
		if len(p.Schedule) == 0 {
			t.Errorf("%s: empty frequency schedule", p.Policy)
		} else if first := p.Schedule[0]; first.Iter != 0 || first.FreqGHz != adv.Static.Config.FreqGHz {
			t.Errorf("%s: schedule opens with %+v, want {0, %g}", p.Policy, first, adv.Static.Config.FreqGHz)
		}
		if p.Policy == dvfs.PolicyFixed && (p.MakespanDeltaPct != 0 || p.EnergyDeltaPct != 0) {
			t.Errorf("fixed policy deltas not exactly zero: %+v", p)
		}
	}

	// Attribution: baseline + one governed run per policy.
	wantRuns := strconv.Itoa(1 + len(adv.Policies))
	if got := resp.Header.Get(PredictionsHeader); got != wantRuns {
		t.Errorf("%s = %q, want %q", PredictionsHeader, got, wantRuns)
	}
	if resp.Header.Get(SimSecondsHeader) == "" || resp.Header.Get(EnergyHeader) == "" {
		t.Error("attribution headers missing on /v1/advise")
	}

	// Per-policy governor accounting moved on the cold path.
	for _, p := range dvfs.Policies() {
		if n := s.mAdviseEvals.With(p).Value(); n != 1 {
			t.Errorf("advise evaluations for %q = %d, want 1", p, n)
		}
	}
	if n := s.mAdviseRec.With(adv.Recommended).Value(); n != 1 {
		t.Errorf("recommendations for %q = %d, want 1", adv.Recommended, n)
	}

	// Repeat: byte-identical from the cache, counters unchanged.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/advise", adviseBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, raw2)
	}
	if got := resp2.Header.Get("X-Response-Cache"); got != "hit" {
		t.Errorf("repeat X-Response-Cache = %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("cached advise response is not byte-identical to the computed one")
	}
	for _, p := range dvfs.Policies() {
		if n := s.mAdviseEvals.With(p).Value(); n != 1 {
			t.Errorf("cache hit re-counted evaluations for %q: %d", p, n)
		}
	}
}

// TestAdviseStreamedMatchesDocument: the NDJSON shape carries exactly the
// document's policies (one per line) plus its summary fields.
func TestAdviseStreamedMatchesDocument(t *testing.T) {
	_, ts := newTestServer(t)
	_, doc := postJSON(t, ts.URL+"/v1/advise", adviseBody)
	var want adviseResponseJSON
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("document: %v\n%s", err, doc)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/advise", strings.NewReader(adviseBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got, want := len(lines), len(want.Policies)+1; got != want {
		t.Fatalf("%d NDJSON lines, want %d (policies + summary)", got, want)
	}
	for i, line := range lines[:len(lines)-1] {
		var item struct {
			Type   string `json:"type"`
			Policy struct {
				Policy string `json:"policy"`
			} `json:"policy"`
		}
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if item.Type != "policy" || item.Policy.Policy != want.Policies[i].Policy {
			t.Errorf("line %d carries %q/%q, want policy %q", i, item.Type, item.Policy.Policy, want.Policies[i].Policy)
		}
	}
	var sum struct {
		Type        string `json:"type"`
		Recommended string `json:"recommended"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Type != "summary" || sum.Recommended != want.Recommended {
		t.Errorf("summary line %+v does not match document recommendation %q", sum, want.Recommended)
	}
}

// TestAdvisePolicySubsetAndDefaults: a policy subset is evaluated in
// canonical suite order whatever order (or duplication) the client used,
// and omitted nodes/cores resolve to the testbed shape in the cache key
// (the explicit spelling hits the same entry).
func TestAdvisePolicySubset(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"policies":["slack","fixed","slack"]}`
	resp, raw := postJSON(t, ts.URL+"/v1/advise", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var adv adviseResponseJSON
	if err := json.Unmarshal(raw, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Policies) != 2 || adv.Policies[0].Policy != dvfs.PolicyFixed || adv.Policies[1].Policy != dvfs.PolicySlack {
		t.Fatalf("subset not canonicalised to suite order: %+v", adv.Policies)
	}
	// Same selection spelled canonically: a cache hit, byte-identical.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/advise",
		`{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"policies":["fixed","slack"]}`)
	if got := resp2.Header.Get("X-Response-Cache"); got != "hit" {
		t.Errorf("canonical respelling missed the cache: %q", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("respelled subset response differs")
	}
}

// TestAdviseEngineSharesCacheEntry: the optional engine field is not part
// of the cache key, so a request naming the sequential engine replays the
// entry of one that omits the field.
func TestAdviseEngineSharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t)
	_, raw := postJSON(t, ts.URL+"/v1/advise", adviseBody)
	resp2, raw2 := postJSON(t, ts.URL+"/v1/advise",
		`{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"engine":"sequential"}`)
	if got := resp2.Header.Get("X-Response-Cache"); got != "hit" {
		t.Errorf("sequential-engine advise missed the cache: %q", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("advise responses differ with and without the engine field")
	}
}

func TestAdviseErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown system", `{"system":"cray","program":"SP"}`, 400},
		{"unknown program", `{"system":"xeon","program":"NOPE"}`, 400},
		{"bad class", `{"system":"xeon","program":"SP","class":"Z"}`, 400},
		{"oversized shape", `{"system":"xeon","program":"SP","nodes":99}`, 400},
		{"unknown policy", `{"system":"xeon","program":"SP","policies":["turbo"]}`, 400},
		{"negative slowdown", `{"system":"xeon","program":"SP","max_slowdown_pct":-3}`, 400},
		{"slowdown too large", `{"system":"xeon","program":"SP","max_slowdown_pct":150}`, 400},
		{"unknown engine", `{"system":"xeon","program":"SP","engine":"quantum"}`, 400},
		{"unknown field", `{"system":"xeon","program":"SP","frobnicate":1}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/advise", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			errorEnvelope(t, resp, raw)
		})
	}
}

func TestAdviseCacheKeyCanonical(t *testing.T) {
	a := adviseCacheKey("xeon", "SP", "S", 2, 2, []string{"fixed", "slack"}, 0.05)
	b := adviseCacheKey("xeon", "SP", "S", 2, 2, []string{"fixed", "slack"}, 0.05)
	if a != b {
		t.Error("identical advise requests produced different keys")
	}
	for _, other := range []string{
		adviseCacheKey("xeon", "SP", "S", 2, 2, []string{"fixed"}, 0.05),
		adviseCacheKey("xeon", "SP", "S", 2, 2, []string{"fixed", "slack"}, 0.1),
		adviseCacheKey("xeon", "SP", "S", 2, 4, []string{"fixed", "slack"}, 0.05),
		adviseCacheKey("xeon", "SP", "A", 2, 2, []string{"fixed", "slack"}, 0.05),
		adviseCacheKey("xeon", "LB", "S", 2, 2, []string{"fixed", "slack"}, 0.05),
	} {
		if other == a {
			t.Errorf("distinct advise request collided: %q", other)
		}
	}
}
