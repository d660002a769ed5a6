package characterize

import (
	"testing"

	"hybridperf/internal/metrics"
	"hybridperf/internal/workload"
)

// BenchmarkAdvise measures one cold /v1/advise evaluation of the full
// policy suite on xeon SP class S at 8x8: the static sweep, the ungoverned
// baseline with its phase prior, and the governed slack and phase runs.
// Like the daemon, every simulation publishes into one shared engine. The
// model is characterised once, outside the timed loop.
func BenchmarkAdvise(b *testing.B) {
	m, prof, spec := adviseFixture(b)
	opt := AdviseOptions{Class: workload.ClassS, Nodes: 8, Cores: 8, Seed: 42,
		SharedMetrics: metrics.NewEngine()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Advise(m, prof, spec, opt); err != nil {
			b.Fatal(err)
		}
	}
}
