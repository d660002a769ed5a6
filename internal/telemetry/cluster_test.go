package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hybridperf/internal/cluster"
)

// newShardPair starts two clustered replicas that know each other. The
// listeners must exist before SetCluster (peer URLs are the ring
// identities), so the servers are mounted first and clustered second —
// the same order the daemon's main follows.
func newShardPair(t *testing.T) (sA, sB *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	mk := func() (*Server, *httptest.Server) {
		s := NewServer(Config{
			Workers:       2,
			Seed:          42,
			ResponseCache: 64,
			Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		s.SetReady(true)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	sA, tsA = mk()
	sB, tsB = mk()
	peers := []string{tsA.URL, tsB.URL}
	for _, pair := range []struct {
		s    *Server
		self string
	}{{sA, tsA.URL}, {sB, tsB.URL}} {
		if err := pair.s.SetCluster(pair.self, peers); err != nil {
			t.Fatal(err)
		}
	}
	return sA, sB, tsA, tsB
}

// keyOwnedBy returns a (system, program) pair the ring assigns to owner.
func keyOwnedBy(t *testing.T, peers []string, owner string) (string, string) {
	t.Helper()
	ring, err := cluster.New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"xeon", "arm"} {
		for _, prog := range []string{"SP", "CP", "LB", "LU", "BT", "FT"} {
			if ring.Owner(cluster.ModelKey(sys, prog)) == owner {
				return sys, prog
			}
		}
	}
	t.Fatalf("no catalogue key hashes to %s — ring imbalance beyond the catalogue size", owner)
	return "", ""
}

func predictBody(sys, prog string) string {
	freq := 1.8
	if sys == "arm" {
		freq = 1.4
	}
	return fmt.Sprintf(`{"system":%q,"program":%q,"class":"A","nodes":2,"cores":2,"freq_ghz":%g}`, sys, prog, freq)
}

// TestForwardedPredictMatchesDirect: a predict sent to the non-owning
// replica is forwarded to the owner and the client sees exactly what the
// owner would have served directly — same bytes, and the shard header
// names the owner, not the proxy.
func TestForwardedPredictMatchesDirect(t *testing.T) {
	sA, sB, tsA, tsB := newShardPair(t)
	sys, prog := keyOwnedBy(t, []string{tsA.URL, tsB.URL}, tsB.URL)
	body := predictBody(sys, prog)

	respDirect, rawDirect := postJSON(t, tsB.URL+"/v1/predict", body)
	if respDirect.StatusCode != http.StatusOK {
		t.Fatalf("direct predict status %d: %s", respDirect.StatusCode, rawDirect)
	}
	respFwd, rawFwd := postJSON(t, tsA.URL+"/v1/predict", body)
	if respFwd.StatusCode != http.StatusOK {
		t.Fatalf("forwarded predict status %d: %s", respFwd.StatusCode, rawFwd)
	}
	if !bytes.Equal(rawDirect, rawFwd) {
		t.Errorf("forwarded response differs from the owner's direct one:\ndirect:    %s\nforwarded: %s",
			rawDirect, rawFwd)
	}
	if got := respFwd.Header.Get("X-Hybridperf-Shard"); got != tsB.URL {
		t.Errorf("X-Hybridperf-Shard = %q, want the owner %q", got, tsB.URL)
	}
	if n := sA.mForwards.With(tsB.URL).Value(); n != 1 {
		t.Errorf("proxy counted %d forwards to the owner, want 1", n)
	}
	// The proxy never characterised: the model lives only on the owner.
	if n := sA.mChar.With(sys, prog).Value(); n != 0 {
		t.Errorf("proxy ran %d campaigns for a forwarded key, want 0", n)
	}
	if n := sB.mChar.With(sys, prog).Value(); n != 1 {
		t.Errorf("owner ran %d campaigns, want 1", n)
	}
}

// TestForwardedHeaderForcesLocal: a request already carrying
// X-Hybridperf-Forwarded is served where it lands, whoever owns the key —
// the loop-prevention rule, and the operator escape hatch for probing one
// replica's own cache.
func TestForwardedHeaderForcesLocal(t *testing.T) {
	sA, _, tsA, tsB := newShardPair(t)
	sys, prog := keyOwnedBy(t, []string{tsA.URL, tsB.URL}, tsB.URL)

	req, err := http.NewRequest(http.MethodPost, tsA.URL+"/v1/predict", strings.NewReader(predictBody(sys, prog)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Hybridperf-Forwarded", "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced-local predict status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Hybridperf-Shard"); got != tsA.URL {
		t.Errorf("X-Hybridperf-Shard = %q, want the local replica %q", got, tsA.URL)
	}
	if n := sA.mForwards.With(tsB.URL).Value(); n != 0 {
		t.Errorf("forced-local request was forwarded %d times, want 0 (loop prevention)", n)
	}
	if n := sA.mChar.With(sys, prog).Value(); n != 1 {
		t.Errorf("local replica ran %d campaigns for the forced key, want 1", n)
	}
}

// TestForwardFallsBackWhenPeerDown: ownership is advisory — when the
// owning replica is unreachable the proxy serves the request itself
// (campaigns are deterministic, so the answer is identical) and counts
// the failed hop.
func TestForwardFallsBackWhenPeerDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	s := NewServer(Config{
		Workers:       2,
		Seed:          42,
		ResponseCache: 64,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.SetCluster(ts.URL, []string{ts.URL, deadURL}); err != nil {
		t.Fatal(err)
	}
	sys, prog := keyOwnedBy(t, []string{ts.URL, deadURL}, deadURL)

	resp, raw := postJSON(t, ts.URL+"/v1/predict", predictBody(sys, prog))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with dead owner: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Hybridperf-Shard"); got != ts.URL {
		t.Errorf("X-Hybridperf-Shard = %q, want the surviving replica %q", got, ts.URL)
	}
	if n := s.mForwardErrs.With(deadURL).Value(); n != 1 {
		t.Errorf("failed hops to the dead owner = %d, want 1", n)
	}
	if n := s.mChar.With(sys, prog).Value(); n != 1 {
		t.Errorf("surviving replica ran %d campaigns, want 1 (local fallback)", n)
	}
}

// TestBatchForwardsWhenSingleOwner: a batch whose every tuple one remote
// replica owns forwards whole and matches the owner's direct answer; a
// mixed-ownership batch is served where it lands.
func TestBatchForwardsWhenSingleOwner(t *testing.T) {
	sA, _, tsA, tsB := newShardPair(t)
	peers := []string{tsA.URL, tsB.URL}
	sys, prog := keyOwnedBy(t, peers, tsB.URL)
	freq := 1.8
	if sys == "arm" {
		freq = 1.4
	}
	single := fmt.Sprintf(`{"class":"A","tuples":[
		{"system":%q,"program":%q,"nodes":1,"cores":2,"freq_ghz":%g},
		{"system":%q,"program":%q,"nodes":2,"cores":2,"freq_ghz":%g}
	]}`, sys, prog, freq, sys, prog, freq)

	respDirect, rawDirect := postJSON(t, tsB.URL+"/v1/batch", single)
	if respDirect.StatusCode != http.StatusOK {
		t.Fatalf("direct batch status %d: %s", respDirect.StatusCode, rawDirect)
	}
	respFwd, rawFwd := postJSON(t, tsA.URL+"/v1/batch", single)
	if respFwd.StatusCode != http.StatusOK {
		t.Fatalf("forwarded batch status %d: %s", respFwd.StatusCode, rawFwd)
	}
	if !bytes.Equal(rawDirect, rawFwd) {
		t.Errorf("forwarded batch differs from the owner's direct answer")
	}
	if n := sA.mForwards.With(tsB.URL).Value(); n != 1 {
		t.Errorf("single-owner batch forwarded %d times, want 1", n)
	}

	// Mixed ownership: one tuple per replica's keys. Served locally.
	sysA, progA := keyOwnedBy(t, peers, tsA.URL)
	freqA := 1.8
	if sysA == "arm" {
		freqA = 1.4
	}
	mixed := fmt.Sprintf(`{"class":"A","tuples":[
		{"system":%q,"program":%q,"nodes":1,"cores":2,"freq_ghz":%g},
		{"system":%q,"program":%q,"nodes":1,"cores":2,"freq_ghz":%g}
	]}`, sys, prog, freq, sysA, progA, freqA)
	resp, raw := postJSON(t, tsA.URL+"/v1/batch", mixed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d: %s", resp.StatusCode, raw)
	}
	if n := sA.mForwards.With(tsB.URL).Value(); n != 1 {
		t.Errorf("mixed-ownership batch forwarded (total forwards %d, want still 1)", n)
	}
}
