package exec

import (
	"testing"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/workload"
)

// runFixture is one validation-size direct measurement: SP at the
// characterisation class on the largest validation configuration.
func runFixture() Request {
	return Request{
		Prof:  machine.XeonE5(),
		Spec:  workload.SP(),
		Class: workload.ClassS,
		Cfg:   machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9},
		Seed:  1,
	}
}

// governedFixture is runFixture under the phase-predictive DVFS governor
// with rank 0's schedule recorded — the per-iteration unit of work behind
// every /v1/advise policy evaluation.
func governedFixture(tb testing.TB) Request {
	req := runFixture()
	var levels []float64
	for _, f := range req.Prof.Frequencies {
		if f <= req.Cfg.Freq {
			levels = append(levels, f)
		}
	}
	req.Governor = func(rank int) dvfs.Governor {
		g, err := dvfs.NewPhasePredictive(levels, 0, dvfs.PhaseSample{}, 0.05)
		if err != nil {
			tb.Fatal(err)
		}
		if rank == 0 {
			return &dvfs.ScheduleRecorder{G: g}
		}
		return g
	}
	return req
}

// BenchmarkRun measures runFixture — the unit of work every experiment
// artifact and sweep repeats thousands of times. Its allocations are
// pinned by TestRunAllocBudget.
func BenchmarkRun(b *testing.B) {
	req := runFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGoverned measures governedFixture. The gap to BenchmarkRun
// is the all-in price of the governed path: the ObservePhases
// counter-delta hook, the EWMA frequency decision and the transition
// recording. Its allocations are pinned by TestRunAllocBudget.
func BenchmarkRunGoverned(b *testing.B) {
	req := governedFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepFixture is a small validation sweep: one point per node count.
func sweepFixture() []Request {
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
	return reqs
}

// BenchmarkSweep measures sweepFixture through the concurrent sweep
// engine with 8 workers. Its allocations are pinned by
// TestSweepAllocBudget.
func BenchmarkSweep(b *testing.B) {
	reqs := sweepFixture()
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
	req := runFixture()
	req.SharedMetrics = metrics.NewEngine()
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
