// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the substrates and ablation
// benches for the model's design choices (DESIGN.md, Sec. 5).
//
// One benchmark per paper artifact:
//
//	go test -bench 'Fig|Table|WhatIf' -benchtime 1x
//
// The artifact benches run the experiment pipeline in fast mode so a
// full -bench=. pass stays in CI-friendly time; `cmd/experiments` (no
// -fast) regenerates the full-fidelity outputs recorded in
// EXPERIMENTS.md.
package hybridperf

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hybridperf/internal/core"
	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/exec"
	"hybridperf/internal/experiments"
	"hybridperf/internal/machine"
	"hybridperf/internal/pareto"
	"hybridperf/internal/queueing"
	"hybridperf/internal/workload"
)

// benchArtifact runs one experiment artifact end to end per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Config{Fast: true, Seed: 7, Workers: 8})
		if _, err := r.ByID(id); err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper table and figure (experiment index E1-E11).
func BenchmarkFig3NetworkCharacterization(b *testing.B) { benchArtifact(b, "fig3") }
func BenchmarkTable3Systems(b *testing.B)               { benchArtifact(b, "table3") }
func BenchmarkFig5TimeValidation(b *testing.B)          { benchArtifact(b, "fig5") }
func BenchmarkFig6EnergyValidation(b *testing.B)        { benchArtifact(b, "fig6") }
func BenchmarkFig7ScaleOutLU(b *testing.B)              { benchArtifact(b, "fig7") }
func BenchmarkTable2Validation(b *testing.B)            { benchArtifact(b, "table2") }
func BenchmarkFig8XeonSPPareto(b *testing.B)            { benchArtifact(b, "fig8") }
func BenchmarkFig9ARMCPPareto(b *testing.B)             { benchArtifact(b, "fig9") }
func BenchmarkFig10UCRXeon(b *testing.B)                { benchArtifact(b, "fig10") }
func BenchmarkFig11UCRARM(b *testing.B)                 { benchArtifact(b, "fig11") }
func BenchmarkWhatIfMemoryBandwidth(b *testing.B)       { benchArtifact(b, "whatif") }

// Extension artifacts beyond the paper's evaluation.
func BenchmarkDVFSExtension(b *testing.B)    { benchArtifact(b, "dvfs") }
func BenchmarkTopologyAblation(b *testing.B) { benchArtifact(b, "topology") }

// benchModel characterises once (outside the timed loop) and returns a
// ready model for prediction benches.
func benchModel(b *testing.B, sys *System, prog *Program) *Model {
	b.Helper()
	model, err := Characterize(sys, prog, &CharacterizeOptions{Seed: 1, Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// BenchmarkPredict measures single-configuration model evaluation: the
// per-point cost of exploring a configuration space.
func BenchmarkPredict(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	cfg := Config{Nodes: 8, Cores: 8, Freq: 1.8e9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(cfg, ClassA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreFigure8Space sweeps the paper's 216-configuration Xeon
// SP space and extracts the Pareto frontier.
func BenchmarkExploreFigure8Space(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	cfgs := model.Space(pareto.PowersOfTwo(256))
	if len(cfgs) != 216 {
		b.Fatalf("space = %d", len(cfgs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.Explore(cfgs, ClassA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreFullSpace sweeps a dense 8-node x 8-core x all-DVFS
// Xeon space (192 configurations) through the sweep engine, serial vs
// 8-worker.
func BenchmarkExploreFullSpace(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	cfgs := model.Space(pareto.Range(1, 8))
	if len(cfgs) != 192 {
		b.Fatalf("space = %d", len(cfgs))
	}
	S, err := SP().Iterations(ClassA)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pareto.Evaluate(model.Core(), cfgs, S); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pareto.EvaluateParallel(context.Background(), model.Core(), cfgs, S, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulation measures the DES cost of one direct measurement at
// the largest validation configuration.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Simulate(XeonE5(), SP(), ClassS, Config{Nodes: 8, Cores: 8, Freq: 1.8e9}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterize measures the full measurement campaign for one
// program (the dominant cost of applying the approach to a new code).
func BenchmarkCharacterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(XeonE5(), LU(), &CharacterizeOptions{Seed: int64(i + 1), Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESEvents measures raw kernel throughput (events/sec) to size
// simulation budgets: two processes ticking in lockstep, so every advance
// is a dispatched event. One op is one event.
func BenchmarkDESEvents(b *testing.B) {
	k := des.NewKernel()
	for _, name := range []string{"tick", "tock"} {
		k.Spawn(name, destest.Script(destest.Repeat(b.N/2, destest.Advance(1))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}

// --- Ablation benches: design choices the model motivates. Each reports
// the resulting mean |error| against direct simulation as a custom metric
// (err%/op), so `-bench Ablation` shows what each modeling term buys.

// ablationGrid is a small but contention-heavy validation grid.
func ablationGrid() []machine.Config {
	return []machine.Config{
		{Nodes: 1, Cores: 8, Freq: 1.8e9},
		{Nodes: 2, Cores: 8, Freq: 1.8e9},
		{Nodes: 4, Cores: 8, Freq: 1.8e9},
		{Nodes: 8, Cores: 8, Freq: 1.8e9},
		{Nodes: 8, Cores: 4, Freq: 1.2e9},
	}
}

// ablationError computes the mean absolute time error of `predict`
// against direct simulation over the ablation grid.
func ablationError(b *testing.B, predict func(machine.Config, int) (float64, error)) float64 {
	b.Helper()
	spec := workload.SP()
	S, _ := spec.Iterations(workload.ClassA)
	var sum float64
	grid := ablationGrid()
	for i, cfg := range grid {
		predT, err := predict(cfg, S)
		if err != nil {
			b.Fatal(err)
		}
		meas, err := exec.Run(exec.Request{
			Prof: machine.XeonE5(), Spec: spec, Class: workload.ClassA, Cfg: cfg, Seed: 1000 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sum += math.Abs(predT-meas.Time) / meas.Time * 100
	}
	return sum / float64(len(grid))
}

// BenchmarkAblationFullModel is the reference point: the complete Eq. (1)
// model.
func BenchmarkAblationFullModel(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	var errPct float64
	for i := 0; i < b.N; i++ {
		errPct = ablationError(b, func(cfg machine.Config, S int) (float64, error) {
			p, err := model.Core().Predict(cfg, S)
			return p.T, err
		})
	}
	b.ReportMetric(errPct, "err%/op")
}

// BenchmarkAblationNoContention drops every contention term — the
// Amdahl-style baseline T = (w+b)/(n c f) that prior first-principle
// approaches use. Its error shows why the paper models queueing.
func BenchmarkAblationNoContention(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	in := model.Core().Inputs()
	var errPct float64
	for i := 0; i < b.N; i++ {
		errPct = ablationError(b, func(cfg machine.Config, S int) (float64, error) {
			bp, ok := in.Baseline[machine.CF{Cores: cfg.Cores, Freq: cfg.Freq}]
			if !ok {
				return 0, fmt.Errorf("no baseline at %v", cfg)
			}
			scale := float64(S) / float64(in.BaselineIters)
			ncf := float64(cfg.Nodes) * float64(cfg.Cores) * cfg.Freq
			return (bp.W + bp.B) * scale / ncf, nil
		})
	}
	b.ReportMetric(errPct, "err%/op")
}

// BenchmarkAblationNoMemoryTerm keeps network modeling but drops Eq. (7).
func BenchmarkAblationNoMemoryTerm(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	var errPct float64
	for i := 0; i < b.N; i++ {
		errPct = ablationError(b, func(cfg machine.Config, S int) (float64, error) {
			p, err := model.Core().Predict(cfg, S)
			return p.T - p.TMem, err
		})
	}
	b.ReportMetric(errPct, "err%/op")
}

// BenchmarkAblationNoNetworkQueueing keeps Eq. (6) service but drops the
// Eq. (5) M/G/1 waiting time.
func BenchmarkAblationNoNetworkQueueing(b *testing.B) {
	model := benchModel(b, XeonE5(), SP())
	var errPct float64
	for i := 0; i < b.N; i++ {
		errPct = ablationError(b, func(cfg machine.Config, S int) (float64, error) {
			p, err := model.Core().Predict(cfg, S)
			return p.T - p.TwNet, err
		})
	}
	b.ReportMetric(errPct, "err%/op")
}

// BenchmarkAblationMD1VsMG1 compares the waiting-time formula choices on
// a mixed message-size workload: with deterministic per-class service the
// mixture still has variance, which M/D/1-on-the-mean underestimates.
func BenchmarkAblationMD1VsMG1(b *testing.B) {
	classes := []core.MsgClass{{Count: 4, Bytes: 64e3}, {Count: 1, Bytes: 4e6}}
	net := core.NetModel{Overhead: 5e-5, Peak: 112.5e6}
	var yMean, y2, n float64
	for _, mc := range classes {
		y := net.ServiceTime(mc.Bytes)
		cnt := float64(mc.Count)
		yMean += cnt * y
		y2 += cnt * y * y
		n += cnt
	}
	yMean /= n
	y2 /= n
	lambda := 0.8 / yMean
	var gap float64
	for i := 0; i < b.N; i++ {
		mg1, err1 := queueing.MG1Wait(lambda, yMean, y2)
		md1, err2 := queueing.MD1Wait(lambda, yMean)
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		gap = (mg1 - md1) / mg1 * 100
	}
	b.ReportMetric(gap, "md1-underestimate-%")
}
