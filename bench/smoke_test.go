package main

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"hybridperf/internal/gateway"
	"hybridperf/internal/telemetry"
)

// TestSmoke drives every workload for 200 ms per phase and boot against
// in-process servers — one daemon, and two clustered shards behind a
// gateway — then runs one workload traced: every answer must check out
// and every metric must be measured.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises every model in-process")
	}
	cat, err := newCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	newServer := func() *telemetry.Server {
		s := telemetry.NewServer(telemetry.Config{Seed: serveSeed, Logger: quiet, ResponseCache: 512, ResponseCacheTTL: 5 * time.Minute})
		for _, k := range cat.keys {
			if err := s.Warm(k.system, k.program); err != nil {
				t.Fatal(err)
			}
		}
		s.SetReady(true)
		return s
	}
	single := httptest.NewServer(newServer().Handler())
	defer single.Close()
	var peers []string
	var shards []*telemetry.Server
	for i := 0; i < 2; i++ {
		s := newServer()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		shards, peers = append(shards, s), append(peers, ts.URL)
	}
	for i, s := range shards {
		if err := s.SetCluster(peers[i], peers); err != nil {
			t.Fatal(err)
		}
	}
	gw, err := gateway.New(peers, quiet)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	defer gts.Close()

	var ref *reference // characterised once, shared by every run
	drive := func(t *testing.T, w *workload, trace bool) *result {
		d := &deployment{entry: single.URL, daemons: []string{single.URL}, all: []string{single.URL}}
		if w.gateway {
			d = &deployment{entry: gts.URL, daemons: peers, all: append([]string{gts.URL}, peers...)}
		}
		opt := options{seed: 1, measure: 1800 * time.Millisecond, warmup: 100 * time.Millisecond, trace: trace, workDir: t.TempDir()}
		r := newRunner(context.Background(), opt, w, cat)
		var err error
		if r.gen, err = newGenerator(w, opt.seed, cat, peers); err != nil {
			t.Fatal(err)
		}
		r.ref = ref
		res, err := r.measure(func() (*deployment, time.Duration, error) { return d, 0, nil })
		if err != nil {
			t.Fatal(err)
		}
		ref = r.ref
		if res.attempted == 0 || res.failed != 0 {
			t.Errorf("%d of %d requests failed: %v", res.failed, res.attempted, res.failures)
		}
		return res
	}
	measured := func(t *testing.T, res *result, list []metric) {
		for _, m := range list {
			if v, ok := res.values[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s not measured", m.name)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			measured(t, drive(t, w, false), endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		w := mustWorkload(t, "gateway-fanout")
		measured(t, drive(t, w, true), perLayer)
	})
}
