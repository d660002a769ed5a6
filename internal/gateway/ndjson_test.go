package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hybridperf/internal/cluster"
)

// A result fragment as a replica renders it, for fake shard answers.
const fakeFrag = `{"system":"xeon","program":"SP","config":{"nodes":1,"cores":1,"freq_ghz":1.8},"time_s":1.5,"energy_j":300,"power_w":200,"ucr":0.5}`

// TestBatchGarbledShardAnswer: a shard whose 200 answer is not a
// well-framed NDJSON stream of valid fragments costs only its own tuples.
// For each garbled shape the merged answer is valid JSON, names that
// shard in shard_errors and carries the healthy shard's results intact;
// a batch the garbling shard owned entirely is a 503.
func TestBatchGarbledShardAnswer(t *testing.T) {
	garbled := map[string]string{
		"truncated stream":   resultLinePrefix + fakeFrag[:40],
		"no summary line":    resultLinePrefix + fakeFrag + "}\n",
		"non-JSON fragment":  resultLinePrefix + `{not json}` + "}\n" + summaryLinePrefix + `"class":"S","count":1,"groups":1}` + "\n",
		"JSON document body": `{"class":"S","count":1,"groups":1,"results":[` + fakeFrag + "]}\n",
		"empty 200":          "",
	}
	var answer atomic.Pointer[string]
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, *answer.Load())
	}))
	t.Cleanup(fake.Close)
	_, real := newShard(t)
	g, err := New([]string{real.URL, fake.URL}, quiet())
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(g.Handler())
	t.Cleanup(gts.Close)

	var all, healthy, owned []string
	for _, sys := range []string{"xeon", "arm"} {
		for _, prog := range []string{"LU", "SP", "BT", "CP", "LB", "FT"} {
			tuple := fmt.Sprintf(`{"system":%q,"program":%q,"nodes":1,"cores":1,"freq_ghz":0}`, sys, prog)
			all = append(all, tuple)
			if g.ring.Owner(cluster.ModelKey(sys, prog)) == fake.URL {
				owned = append(owned, tuple)
			} else {
				healthy = append(healthy, tuple)
			}
		}
	}
	if len(owned) == 0 || len(healthy) == 0 {
		t.Skipf("the ring put %d of %d keys on the fake shard", len(owned), len(all))
	}
	batch := func(tuples []string) string {
		return `{"class":"S","tuples":[` + strings.Join(tuples, ",") + `]}`
	}
	type doc struct {
		Count       int             `json:"count"`
		Results     json.RawMessage `json:"results"`
		ShardErrors []shardError    `json:"shard_errors"`
	}
	resp, raw := post(t, real.URL+"/v1/batch", batch(healthy), nil)
	var want doc
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &want) != nil {
		t.Fatalf("direct batch on the healthy shard: status %d: %s", resp.StatusCode, raw)
	}

	for name, body := range garbled {
		t.Run(name, func(t *testing.T) {
			answer.Store(&body)
			resp, raw := post(t, gts.URL+"/v1/batch", batch(all), nil)
			if resp.StatusCode != http.StatusOK || !json.Valid(raw) {
				t.Fatalf("status %d, want 200 with valid JSON: %s", resp.StatusCode, raw)
			}
			var got doc
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.ShardErrors) != 1 || got.ShardErrors[0].Shard != fake.URL ||
				!strings.Contains(got.ShardErrors[0].Error, "unparseable answer") || got.ShardErrors[0].Tuples != len(owned) {
				t.Errorf("shard_errors = %+v, want the fake shard's unparseable answer for %d tuples", got.ShardErrors, len(owned))
			}
			if got.Count != want.Count || !bytes.Equal(got.Results, want.Results) {
				t.Errorf("healthy results not intact:\n got  %d %s\n want %d %s", got.Count, got.Results, want.Count, want.Results)
			}

			resp, raw = post(t, gts.URL+"/v1/batch", batch(owned), nil)
			if resp.StatusCode != http.StatusServiceUnavailable || !json.Valid(raw) {
				t.Errorf("batch owned by the garbling shard: status %d, want 503 with valid JSON: %s", resp.StatusCode, raw)
			}
		})
	}
}

// FuzzSplitNDJSON: the shard-answer splitter never panics, accepts only
// valid JSON fragments, and loses nothing — re-framing what it accepted
// reproduces its input byte for byte. Seeds live in
// testdata/fuzz/FuzzSplitNDJSON.
func FuzzSplitNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		frags, summary, err := splitNDJSON(raw)
		if err != nil {
			return
		}
		var re []byte
		for _, frag := range frags {
			if !json.Valid(frag) {
				t.Fatalf("accepted invalid fragment %q", frag)
			}
			readResult(frag)
			re = append(re, resultLinePrefix...)
			re = append(re, frag...)
			re = append(re, "}\n"...)
		}
		re = append(re, summary...)
		re = append(re, '\n')
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-framed %q, input %q", re, raw)
		}
	})
}
