package exec

import (
	"testing"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/workload"
)

// BenchmarkRun measures one validation-size direct measurement (SP at the
// characterisation class on the largest validation configuration) — the
// unit of work every experiment artifact and sweep repeats thousands of
// times. ns/op and allocs/op for this fixture are gated in CI against the
// sequential-engine reference in BENCH_3.json.
func BenchmarkRun(b *testing.B) {
	req := Request{
		Prof:  machine.XeonE5(),
		Spec:  workload.SP(),
		Class: workload.ClassS,
		Cfg:   machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9},
		Seed:  1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGoverned is the BenchmarkRun fixture under the
// phase-predictive DVFS governor with rank 0's schedule recorded — the
// per-iteration unit of work behind every /v1/advise policy evaluation.
// The gap to BenchmarkRun is the all-in price of the governed path:
// the ObservePhases counter-delta hook, the EWMA frequency decision and
// the transition recording. Gated in CI against BENCH_5.json.
func BenchmarkRunGoverned(b *testing.B) {
	prof := machine.XeonE5()
	cfg := machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9}
	var levels []float64
	for _, f := range prof.Frequencies {
		if f <= cfg.Freq {
			levels = append(levels, f)
		}
	}
	req := Request{
		Prof:  prof,
		Spec:  workload.SP(),
		Class: workload.ClassS,
		Cfg:   cfg,
		Seed:  1,
		Governor: func(rank int) dvfs.Governor {
			g, err := dvfs.NewPhasePredictive(levels, 0, dvfs.PhaseSample{}, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			if rank == 0 {
				return &dvfs.ScheduleRecorder{G: g}
			}
			return g
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures a small validation sweep (one point per node
// count) through the concurrent sweep engine with 8 workers.
func BenchmarkSweep(b *testing.B) {
	var reqs []Request
	for _, nodes := range []int{1, 2, 4, 8} {
		reqs = append(reqs, Request{
			Prof:  machine.XeonE5(),
			Spec:  workload.SP(),
			Class: workload.ClassS,
			Cfg:   machine.Config{Nodes: nodes, Cores: 8, Freq: 1.8e9},
			Seed:  int64(nodes),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(reqs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunParallelShared is the BenchmarkRun fixture run from every
// GOMAXPROCS goroutine at once, all publishing into one shared
// metrics.Engine — the shape of concurrent /v1/advise simulations under
// load. Read it as a ratio to BenchmarkRun from the same invocation; the
// kernels count into their own tallies and publish once per run, so the
// shared engine adds no cross-core contention to the ratio.
func BenchmarkRunParallelShared(b *testing.B) {
	req := Request{
		Prof:          machine.XeonE5(),
		Spec:          workload.SP(),
		Class:         workload.ClassS,
		Cfg:           machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9},
		Seed:          1,
		SharedMetrics: metrics.NewEngine(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := Run(req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
