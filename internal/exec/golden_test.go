package exec

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/workload"
)

// The golden determinism contract: for a fixed seed and configuration,
// Run must report bit-for-bit identical Time, Energy, MeasuredEnergy and
// communication profile across engine refactors. The values below were
// recorded from the pre-PR-2 engine (fresh-goroutine parallel regions,
// container/heap event queue) and must survive every rewrite of the
// simulation hot path. Regenerate deliberately with:
//
//	GOLDEN_GEN=1 go test -run TestGoldenDeterminism ./internal/exec -v
//
// and only commit new values when a semantic change is intended.

type goldenValues struct {
	Time     string // hex float64 (strconv 'x' format)
	Energy   string
	Measured string
	Msgs     int
	Bytes    string
	Wait     string
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func xeonCrossbar() *machine.Profile {
	p := machine.XeonE5()
	p.Topology = machine.TopologyCrossbar
	return p
}

func imbalancedSpec() *workload.Spec {
	s := workload.Synthetic("imb", 8e8, 0.5, 4, 2, 100e3)
	s.Imbalance = 1.0
	return s
}

func slackGov(rank int) dvfs.Governor {
	g, err := dvfs.NewInterNodeSlack([]float64{1.2e9, 1.5e9, 1.8e9}, 0, 0)
	if err != nil {
		panic(err)
	}
	return g
}

// goldenCases covers every communication pattern and engine path: halo
// exchange, barrier + sync overhead, allreduce, alltoall, single-node,
// crossbar ports, and runtime DVFS retuning with rank imbalance.
func goldenCases() map[string]Request {
	return map[string]Request{
		"xeon-sp-halo": {Prof: machine.XeonE5(), Spec: workload.SP(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 4, Freq: 1.8e9}, Seed: 42},
		"xeon-lb-barrier": {Prof: machine.XeonE5(), Spec: workload.LB(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 2, Freq: 1.8e9}, Seed: 11},
		"arm-cp-allreduce": {Prof: machine.ARMCortexA9(), Spec: workload.CP(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 4, Freq: 1.4e9}, Seed: 7},
		"xeon-ft-alltoall": {Prof: machine.XeonE5(), Spec: workload.FT(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 4, Freq: 1.8e9}, Seed: 9},
		"xeon-lu-singlenode": {Prof: machine.XeonE5(), Spec: workload.LU(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 1, Cores: 8, Freq: 1.8e9}, Seed: 3},
		"xeon-sp-crossbar": {Prof: xeonCrossbar(), Spec: workload.SP(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 4, Freq: 1.8e9}, Seed: 5},
		"xeon-imb-governor": {Prof: machine.XeonE5(), Spec: imbalancedSpec(), Class: workload.ClassTest,
			Cfg: machine.Config{Nodes: 4, Cores: 4, Freq: 1.8e9}, Seed: 13, Governor: slackGov},
	}
}

// golden holds the recorded pre-refactor outputs (see comment above).
var golden = map[string]goldenValues{
	"xeon-sp-halo":       {Time: "0x1.45f9cd256814p+00", Energy: "0x1.dfa1f4783c9eap+08", Measured: "0x1.e043377961bd2p+08", Msgs: 64, Bytes: "0x1.e0ea70fb4c181p+23", Wait: "0x0p+00"},
	"xeon-lb-barrier":    {Time: "0x1.e03a203b5eed3p+00", Energy: "0x1.331afe3f1f6f8p+09", Measured: "0x1.34352d4fb281dp+09", Msgs: 128, Bytes: "0x1.829417e307eaep+24", Wait: "0x1.1007fb630d964p-06"},
	"arm-cp-allreduce":   {Time: "0x1.b8906cf1dff25p+06", Energy: "0x1.243b25e3ffa67p+11", Measured: "0x1.1fa992c503468p+11", Msgs: 32, Bytes: "0x1.e848p+26", Wait: "0x1.e8e562323af8bp+02"},
	"xeon-ft-alltoall":   {Time: "0x1.003a06286ad58p+01", Energy: "0x1.69649756ca00cp+09", Measured: "0x1.6765254dc2c9ep+09", Msgs: 48, Bytes: "0x1.6e36p+25", Wait: "0x1.2234f3af9e165p-02"},
	"xeon-lu-singlenode": {Time: "0x1.073ff862ae62ep+01", Energy: "0x1.e13d6650a1ec8p+07", Measured: "0x1.e8e7ab0ace952p+07", Msgs: 0, Bytes: "0x0p+00", Wait: "0x0p+00"},
	"xeon-sp-crossbar":   {Time: "0x1.441690755f7d7p+00", Energy: "0x1.dcc4ea07970b8p+08", Measured: "0x1.d888e32e87003p+08", Msgs: 64, Bytes: "0x1.e0ea70fb4c181p+23", Wait: "0x0p+00"},
	"xeon-imb-governor":  {Time: "0x1.140ca4a234c81p-03", Energy: "0x1.78e28e2ec38bcp+05", Measured: "0x1.7e6fa49a8f0a3p+05", Msgs: 16, Bytes: "0x1.e0ea70fb4c182p+19", Wait: "0x1.e44b27deb0b8dp-07"},
}

func TestGoldenDeterminism(t *testing.T) {
	gen := os.Getenv("GOLDEN_GEN") != ""
	for name, req := range goldenCases() {
		name, req := name, req
		t.Run(name, func(t *testing.T) {
			res, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenValues{
				Time:     hexf(res.Time),
				Energy:   hexf(res.Energy.Total()),
				Measured: hexf(res.MeasuredEnergy),
				Msgs:     res.Comm.TotalMsgs,
				Bytes:    hexf(res.Comm.TotalBytes),
				Wait:     hexf(res.Comm.MeanWaitTime),
			}
			// Same-process rerun must be bit-for-bit identical regardless
			// of golden bookkeeping.
			res2, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Time != res.Time || res2.Energy.Total() != res.Energy.Total() ||
				res2.MeasuredEnergy != res.MeasuredEnergy || res2.Comm != res.Comm {
				t.Fatalf("rerun of %s diverged: %+v vs %+v", name, res2, res)
			}
			// Instrumentation must observe without perturbing: the same
			// request with tracing and metrics on reproduces every value
			// bit for bit.
			inst := req
			inst.Trace = true
			inst.Metrics = true
			res3, err := Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, res3, res)
			if len(res3.Trace) == 0 || res3.Metrics == nil {
				t.Fatalf("instrumented run recorded nothing")
			}
			// The serving layer's collectors — a shared process-lifetime
			// engine plus a wall-clock span observer — must be equally
			// invisible: same request, byte-identical outputs.
			shared := req
			shared.SharedMetrics = metrics.NewEngine()
			spans := 0
			shared.Observe = func(label string, start, end time.Time) {
				if label == "" || end.Before(start) {
					t.Errorf("malformed span %q [%v,%v]", label, start, end)
				}
				spans++
			}
			res4, err := Run(shared)
			if err != nil {
				t.Fatal(err)
			}
			if res4.Time != res.Time || res4.Energy != res.Energy ||
				res4.MeasuredEnergy != res.MeasuredEnergy || res4.Comm != res.Comm {
				t.Fatalf("server collectors perturbed %s: %+v vs %+v", name, res4, res)
			}
			if spans != 1 {
				t.Fatalf("Observe fired %d times, want 1", spans)
			}
			if res4.Metrics == nil || res4.Metrics.Engine.Events == 0 {
				t.Fatalf("shared engine recorded nothing")
			}
			if got, want := res4.Metrics.Engine, shared.SharedMetrics.Snapshot(); got != want {
				t.Fatalf("a fresh shared engine should hold exactly the one run's tally:\n tally  %+v\n engine %+v", got, want)
			}
			// A live (cancellable, never cancelled) request context arms the
			// kernel's cancellation poll; the poll must never perturb the
			// simulation — byte-identical outputs with a context attached.
			ctx, cancel := context.WithCancel(context.Background())
			withCtx := req
			withCtx.Ctx = ctx
			res5, err := Run(withCtx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if res5.Time != res.Time || res5.Energy != res.Energy ||
				res5.MeasuredEnergy != res.MeasuredEnergy || res5.Comm != res.Comm {
				t.Fatalf("request context perturbed %s: %+v vs %+v", name, res5, res)
			}
			// Every dispatch is classified exactly once.
			ms := res3.Metrics.Engine
			if ms.SelfDispatches+ms.SchedulerDispatches != ms.Events {
				t.Fatalf("sequential dispatch counters do not sum to events: %+v", ms)
			}
			if gen {
				fmt.Printf("\t%q: {Time: %q, Energy: %q, Measured: %q, Msgs: %d, Bytes: %q, Wait: %q},\n",
					name, got.Time, got.Energy, got.Measured, got.Msgs, got.Bytes, got.Wait)
				return
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden values for %s (run with GOLDEN_GEN=1 to record)", name)
			}
			if got != want {
				t.Errorf("golden mismatch for %s:\n got  %+v\n want %+v", name, got, want)
			}
		})
	}
}

// TestGoldenSweepParallel drives every golden configuration through
// exec.Sweep with several workers and asserts byte-identical results to a
// serial sweep — the determinism contract must survive scheduling onto
// arbitrary OS threads (CI runs this under -race).
func TestGoldenSweepParallel(t *testing.T) {
	cases := goldenCases()
	var names []string
	var reqs []Request
	for name, req := range cases {
		names = append(names, name)
		reqs = append(reqs, req)
	}
	serial, err := Sweep(reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		s, p := serial[i], parallel[i]
		if p.Time != s.Time || p.Energy != s.Energy ||
			p.MeasuredEnergy != s.MeasuredEnergy || p.Comm != s.Comm {
			t.Errorf("%s diverged across worker counts:\n serial   %+v\n parallel %+v",
				names[i], s, p)
		}
		if want, ok := golden[names[i]]; ok {
			if hexf(p.Time) != want.Time || hexf(p.Energy.Total()) != want.Energy {
				t.Errorf("%s parallel sweep drifted from golden values", names[i])
			}
		}
	}
}
