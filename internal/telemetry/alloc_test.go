package telemetry

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
)

// Allocation budgets of one served request, exact at the time they were
// set. They are counted in process over Handler().ServeHTTP with a
// response recorder, so no network stack runs in the loop and the counts
// are deterministic (over a real socket they drift between runs). Lower a
// budget when a change beats it, never raise it without a measured
// reason.
const (
	predictAllocBudget      = 61
	batchComputeAllocBudget = 1071
	batchWarmAllocBudget    = 48
	sweepWarmAllocBudget    = 54
)

// servedAllocs counts the allocations of one request through the full
// middleware stack, after a priming request that warms the model, the
// response cache and the body memo.
func servedAllocs(t *testing.T, cacheSize int, path string, body []byte) float64 {
	t.Helper()
	s := NewServer(Config{
		Workers:       2,
		Seed:          42,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		ResponseCache: cacheSize,
	})
	if err := s.Warm("xeon", "SP"); err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	serve()
	// A collection mid-count empties the sync.Pools the batch path
	// reuses, so refills would show up as extra allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(20, serve)
}

// TestServeAllocBudget pins the serving path's allocations: a warm-model
// predict, a 192-tuple batch evaluated with the response cache off, the
// same batch replayed from the cache, and a cached sweep.
func TestServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	predict := []byte(`{"system":"xeon","program":"SP","class":"A","nodes":4,"cores":8,"freq_ghz":1.8}`)
	sweep := []byte(`{"system":"xeon","program":"SP","class":"A"}`)
	for _, c := range []struct {
		name      string
		cacheSize int
		path      string
		body      []byte
		budget    float64
	}{
		{"predict", 0, "/v1/predict", predict, predictAllocBudget},
		{"batch-192 compute", 0, "/v1/batch", benchTuples(192), batchComputeAllocBudget},
		{"batch-192 warm", 128, "/v1/batch", benchTuples(192), batchWarmAllocBudget},
		{"sweep warm", 128, "/v1/sweep", sweep, sweepWarmAllocBudget},
	} {
		got := servedAllocs(t, c.cacheSize, c.path, c.body)
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.budget {
			t.Errorf("%s allocates %v times, budget %v", c.name, got, c.budget)
		}
	}
}
