package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"hybridperf/internal/characterize"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// lockedBuffer is a log sink safe to read while handlers write to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCharacterizedLogCountsOwnCampaign: two cold campaigns that run at
// the same time each log exactly their own engine counts — the ones the
// same campaign reports when run alone — not a delta of the shared
// engine that also counts the other campaign's simulations.
func TestCharacterizedLogCountsOwnCampaign(t *testing.T) {
	logs := &lockedBuffer{}
	s := NewServer(Config{Workers: 2, Seed: 42, Logger: slog.New(slog.NewTextHandler(logs, nil))})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// Both campaigns start only once both have been admitted, so each
	// runs while the other publishes into the shared engine.
	var arrived sync.WaitGroup
	arrived.Add(2)
	s.charTestHook = func(ctx context.Context, key modelKey) error {
		arrived.Done()
		arrived.Wait()
		return nil
	}
	keys := [][2]string{{"xeon", "SP"}, {"arm", "CP"}}
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(sys, prog string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"system":%q,"program":%q,"class":"S","nodes":1,"cores":1}`, sys, prog)
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s/%s predict: status %d", sys, prog, resp.StatusCode)
			}
		}(k[0], k[1])
	}
	wg.Wait()

	for _, k := range keys {
		prof, err := machine.ByName(k[0])
		if err != nil {
			t.Fatal(err)
		}
		spec, err := workload.ByName(k[1])
		if err != nil {
			t.Fatal(err)
		}
		alone, err := characterize.Run(prof, spec, characterize.Options{Seed: 42, Workers: 2, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		line := regexp.MustCompile(`msg=characterized system=` + k[0] + ` program=` + k[1] + ` .*`).FindString(logs.String())
		want := fmt.Sprintf("engine_events=%d mpi_messages=%d", alone.Metrics.Events, alone.Metrics.Messages)
		if !strings.HasSuffix(line, want) {
			t.Errorf("%s/%s characterized line %q, want the campaign's own %s", k[0], k[1], line, want)
		}
	}
}

// TestPredictEngineField: "engine":"sequential" is accepted and runs the
// cold characterisation on the one engine, feeding the shared counters;
// an unknown engine is a structured 400 naming the bad and the valid
// engine and is not served.
func TestPredictEngineField(t *testing.T) {
	s, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"freq_ghz":1.8,"engine":"sequential"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sequential predict status %d: %s", resp.StatusCode, raw)
	}
	if snap := s.Engine().Snapshot(); snap.Events == 0 {
		t.Errorf("engine counters = %+v, want engine activity (events > 0)", snap)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"SP","class":"S","nodes":2,"cores":2,"freq_ghz":1.8,"engine":"warp-drive"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine status %d, want 400: %s", resp.StatusCode, raw)
	}
	msg, status := errorEnvelope(t, resp, raw)
	if status != http.StatusBadRequest || !strings.Contains(msg, "warp-drive") ||
		!strings.Contains(msg, exec.EngineName) {
		t.Errorf("error envelope (%d, %q) does not name the bad and valid engines", status, msg)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, samples := parseExposition(t, string(text))
	if got := samples[`hybridperf_predictions_served_total{route="/v1/predict"}`]; got != "1" {
		t.Errorf("predictions served = %q, want 1 (the rejected request must not count)", got)
	}
	if got := samples[`hybridperf_engine_events_total`]; got == "" || got == "0" {
		t.Errorf("engine events = %q, want non-zero", got)
	}
}

// TestSweepEngineField mirrors the predict contract on /v1/sweep.
func TestSweepEngineField(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/sweep",
		`{"system":"arm","program":"CP","class":"S","pow2":true,"engine":"sequential"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sequential sweep status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/sweep",
		`{"system":"arm","program":"CP","class":"S","engine":"threads"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine status %d, want 400: %s", resp.StatusCode, raw)
	}
	if msg, _ := errorEnvelope(t, resp, raw); !strings.Contains(msg, "threads") {
		t.Errorf("error %q does not name the offending engine", msg)
	}
}

// TestConfigDefaultEngine: a default-configured server runs engine-less
// requests on the sequential engine and keeps reporting it on
// /v1/systems in the fields clients of the two-engine API read.
func TestConfigDefaultEngine(t *testing.T) {
	s := NewServer(Config{
		Workers: 2,
		Seed:    42,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/predict",
		`{"system":"xeon","program":"LU","class":"S","nodes":1,"cores":2,"freq_ghz":1.8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, raw)
	}
	if snap := s.Engine().Snapshot(); snap.Events == 0 {
		t.Errorf("engine counters = %+v, want engine activity (events > 0)", snap)
	}

	sresp, err := http.Get(ts.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"default_engine":"sequential"`, `"engines":["sequential"]`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/v1/systems response missing %s: %s", want, body)
		}
	}
}
