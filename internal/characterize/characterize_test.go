package characterize

import (
	"math"
	"testing"

	"hybridperf/internal/core"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/stats"
	"hybridperf/internal/workload"
)

func runChar(t *testing.T, prof *machine.Profile, spec *workload.Spec) *Summary {
	t.Helper()
	sum, err := Run(prof, spec, Options{Seed: 42, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestBaselineCoversAllPoints(t *testing.T) {
	prof := machine.XeonE5()
	sum := runChar(t, prof, workload.LU())
	want := prof.CoresPerNode * len(prof.Frequencies)
	if len(sum.Baseline) != want {
		t.Fatalf("baseline has %d points, want %d", len(sum.Baseline), want)
	}
	for cf, bp := range sum.Baseline {
		if bp.W <= 0 {
			t.Fatalf("no work cycles at %v", cf)
		}
		if bp.M <= 0 {
			t.Fatalf("no memory stalls at %v", cf)
		}
		if bp.U <= 0 || bp.U > 1 {
			t.Fatalf("utilization %g at %v", bp.U, cf)
		}
	}
}

func TestBaselineStallsGrowWithFrequency(t *testing.T) {
	// Memory service time is frequency-independent, so stall cycles
	// (time x f) must grow with f at fixed c — the behaviour the paper's
	// ms(c,f) measurements capture.
	prof := machine.XeonE5()
	sum := runChar(t, prof, workload.SP())
	c := prof.CoresPerNode
	low := sum.Baseline[machine.CF{Cores: c, Freq: prof.FMin()}]
	high := sum.Baseline[machine.CF{Cores: c, Freq: prof.FMax()}]
	if high.M <= low.M {
		t.Fatalf("stall cycles at fmax (%g) should exceed fmin (%g)", high.M, low.M)
	}
}

func TestBaselineStallsGrowWithCores(t *testing.T) {
	prof := machine.XeonE5()
	sum := runChar(t, prof, workload.SP())
	f := prof.FMax()
	one := sum.Baseline[machine.CF{Cores: 1, Freq: f}]
	all := sum.Baseline[machine.CF{Cores: prof.CoresPerNode, Freq: f}]
	if all.M <= one.M {
		t.Fatalf("contention missing: ms(%d cores)=%g <= ms(1 core)=%g",
			prof.CoresPerNode, all.M, one.M)
	}
}

func TestCommCalibrationNearOne(t *testing.T) {
	spec := workload.SP()
	sum := runChar(t, machine.XeonE5(), spec)
	hc, ok := sum.Inputs.Comm.(core.HybridComm)
	if !ok {
		t.Fatalf("comm model is %T", sum.Inputs.Comm)
	}
	cal := hc.HaloBytes / spec.HaloBytesN2
	if math.Abs(cal-1) > 0.01 {
		t.Fatalf("mpiP calibration = %g, want ~1 (structural volumes)", cal)
	}
	if sum.MpiP.Ranks != 2 {
		t.Fatalf("mpiP profiled %d ranks, want 2", sum.MpiP.Ranks)
	}
}

func TestCommModelMatchesSpecLaw(t *testing.T) {
	spec := workload.LB()
	sum := runChar(t, machine.ARMCortexA9(), spec)
	for _, n := range []int{2, 4, 8} {
		classes := sum.Inputs.Comm.Classes(n)
		want := spec.MsgClasses(n)
		if len(classes) != len(want) {
			t.Fatalf("n=%d: %d classes, want %d", n, len(classes), len(want))
		}
		for i := range want {
			if classes[i].Count != want[i].Count {
				t.Fatalf("n=%d class %d count %d, want %d", n, i, classes[i].Count, want[i].Count)
			}
			if classes[i].Sync != want[i].Sync {
				t.Fatalf("n=%d class %d sync %v, want %v", n, i, classes[i].Sync, want[i].Sync)
			}
			if math.Abs(classes[i].Bytes-want[i].Bytes)/want[i].Bytes > 0.02 {
				t.Fatalf("n=%d class %d bytes %g, want ~%g", n, i, classes[i].Bytes, want[i].Bytes)
			}
		}
	}
}

func TestNoCommProgramGetsNilComm(t *testing.T) {
	spec := workload.Synthetic("nocomm", 1e9, 0.3, 10, 0, 0)
	sum := runChar(t, machine.XeonE5(), spec)
	if sum.Inputs.Comm != nil {
		t.Fatal("communication-free program got a comm model")
	}
	if sum.MpiP.Ranks != 0 {
		t.Fatal("mpiP ran for a communication-free program")
	}
}

func TestInputsBuildValidModel(t *testing.T) {
	sum := runChar(t, machine.ARMCortexA9(), workload.CP())
	m, err := core.New(sum.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(machine.Config{Nodes: 4, Cores: 4, Freq: 1.4e9}, 160)
	if err != nil {
		t.Fatal(err)
	}
	if p.T <= 0 || p.E <= 0 {
		t.Fatalf("degenerate prediction %+v", p)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(machine.XeonE5(), workload.SP(), Options{BaselineClass: workload.Class("zz")}); err == nil {
		t.Fatal("bad baseline class accepted")
	}
	bad := machine.XeonE5()
	bad.CoresPerNode = 0
	if _, err := Run(bad, workload.SP(), Options{}); err == nil {
		t.Fatal("invalid profile accepted")
	}
	spec := workload.SP()
	spec.WorkPerIter = 0
	if _, err := Run(machine.XeonE5(), spec, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestEndToEndValidationUnder15Percent is the repository's Table 2 claim
// in miniature: model error against direct simulation stays within the
// paper's 15% bound on a sample of configurations, for one program per
// system.
func TestEndToEndValidationUnder15Percent(t *testing.T) {
	cases := []struct {
		prof *machine.Profile
		spec *workload.Spec
	}{
		{machine.XeonE5(), workload.SP()},
		{machine.ARMCortexA9(), workload.LB()},
	}
	for _, tc := range cases {
		sum := runChar(t, tc.prof, tc.spec)
		m, err := core.New(sum.Inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		S, _ := tc.spec.Iterations(workload.ClassA)
		cfgs := []machine.Config{
			{Nodes: 1, Cores: 1, Freq: tc.prof.FMin()},
			{Nodes: 1, Cores: tc.prof.CoresPerNode, Freq: tc.prof.FMax()},
			{Nodes: 2, Cores: 2, Freq: tc.prof.FMax()},
			{Nodes: 4, Cores: tc.prof.CoresPerNode, Freq: tc.prof.FMax()},
			{Nodes: 8, Cores: tc.prof.CoresPerNode, Freq: tc.prof.FMin()},
		}
		var predT, measT, predE, measE []float64
		for i, cfg := range cfgs {
			pred, err := m.Predict(cfg, S)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := exec.Run(exec.Request{
				Prof: tc.prof, Spec: tc.spec, Class: workload.ClassA, Cfg: cfg, Seed: 500 + int64(i),
			})
			if err != nil {
				t.Fatal(err)
			}
			predT = append(predT, pred.T)
			measT = append(measT, meas.Time)
			predE = append(predE, pred.E)
			measE = append(measE, meas.MeasuredEnergy)
		}
		te := stats.SummarizeErrors(predT, measT)
		ee := stats.SummarizeErrors(predE, measE)
		t.Logf("%s/%s: time err %.1f%% (max %.1f%%), energy err %.1f%% (max %.1f%%)",
			tc.prof.Name, tc.spec.Name, te.Mean, te.Max, ee.Mean, ee.Max)
		if te.Mean > 15 {
			t.Errorf("%s/%s mean time error %.1f%% exceeds the paper's 15%%", tc.prof.Name, tc.spec.Name, te.Mean)
		}
		if ee.Mean > 15 {
			t.Errorf("%s/%s mean energy error %.1f%% exceeds the paper's 15%%", tc.prof.Name, tc.spec.Name, ee.Mean)
		}
	}
}

// TestFTExtensionValidates pushes the alltoall-dominated FT extension
// program through the full pipeline: its validation error must sit in the
// same band as the paper's five programs, demonstrating the approach
// generalises to a communication pattern outside the paper's suite.
func TestFTExtensionValidates(t *testing.T) {
	prof := machine.XeonE5()
	spec := workload.FT()
	sum := runChar(t, prof, spec)
	m, err := core.New(sum.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	S, _ := spec.Iterations(workload.ClassA)
	cfgs := []machine.Config{
		{Nodes: 1, Cores: 8, Freq: 1.8e9},
		{Nodes: 2, Cores: 8, Freq: 1.8e9},
		{Nodes: 4, Cores: 4, Freq: 1.5e9},
		{Nodes: 8, Cores: 8, Freq: 1.8e9},
	}
	var predT, measT []float64
	for i, cfg := range cfgs {
		pred, err := m.Predict(cfg, S)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := exec.Run(exec.Request{
			Prof: prof, Spec: spec, Class: workload.ClassA, Cfg: cfg, Seed: 900 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		predT = append(predT, pred.T)
		measT = append(measT, meas.Time)
	}
	es := stats.SummarizeErrors(predT, measT)
	t.Logf("FT/Xeon time error: mean %.1f%%, max %.1f%%", es.Mean, es.Max)
	if es.Mean > 15 {
		t.Errorf("FT mean time error %.1f%% outside the paper's band", es.Mean)
	}
}

// TestCrossbarTopologyValidates characterises and validates on a crossbar
// cluster: the model's per-port contention treatment (portShare = 1) must
// track the crossbar simulator within the usual band, including for the
// collective-heavy CP.
func TestCrossbarTopologyValidates(t *testing.T) {
	for _, spec := range []*workload.Spec{workload.SP(), workload.CP()} {
		prof := machine.XeonE5()
		prof.Topology = machine.TopologyCrossbar
		sum, err := Run(prof, spec, Options{Seed: 42, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Inputs.NetTopology != machine.TopologyCrossbar {
			t.Fatal("topology not propagated into model inputs")
		}
		m, err := core.New(sum.Inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		S, _ := spec.Iterations(workload.ClassA)
		cfgs := []machine.Config{
			{Nodes: 2, Cores: 8, Freq: 1.8e9},
			{Nodes: 4, Cores: 8, Freq: 1.8e9},
			{Nodes: 8, Cores: 8, Freq: 1.8e9},
			{Nodes: 8, Cores: 2, Freq: 1.2e9},
		}
		var predT, measT []float64
		for i, cfg := range cfgs {
			pred, err := m.Predict(cfg, S)
			if err != nil {
				t.Fatal(err)
			}
			meas, err := exec.Run(exec.Request{
				Prof: prof, Spec: spec, Class: workload.ClassA, Cfg: cfg, Seed: 1300 + int64(i),
			})
			if err != nil {
				t.Fatal(err)
			}
			predT = append(predT, pred.T)
			measT = append(measT, meas.Time)
		}
		es := stats.SummarizeErrors(predT, measT)
		t.Logf("%s/crossbar time error: mean %.1f%%, max %.1f%%", spec.Name, es.Mean, es.Max)
		if es.Mean > 15 {
			t.Errorf("%s crossbar mean time error %.1f%% outside the band", spec.Name, es.Mean)
		}
	}
}

// TestSummaryMetricsWithSharedEngine: a campaign with Metrics set fills
// Summary.Metrics whether or not a shared engine is attached, and with one
// attached the engine receives exactly the campaign's aggregate — every
// run's own tally, published once, however many ran concurrently.
func TestSummaryMetricsWithSharedEngine(t *testing.T) {
	prof, spec := machine.XeonE5(), workload.SP()
	own, err := Run(prof, spec, Options{Seed: 42, Workers: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	shared := metrics.NewEngine()
	sum, err := Run(prof, spec, Options{Seed: 42, Workers: 4, Metrics: true, SharedMetrics: shared})
	if err != nil {
		t.Fatal(err)
	}
	if sum.MetricsRuns == 0 || sum.Metrics.Events == 0 {
		t.Fatalf("shared-engine campaign aggregated nothing: %d runs, %+v", sum.MetricsRuns, sum.Metrics)
	}
	if sum.Metrics != own.Metrics || sum.MetricsRuns != own.MetricsRuns {
		t.Fatalf("aggregate depends on the shared engine:\n shared %+v (%d runs)\n own    %+v (%d runs)",
			sum.Metrics, sum.MetricsRuns, own.Metrics, own.MetricsRuns)
	}
	if got := shared.Snapshot(); got != sum.Metrics {
		t.Fatalf("shared engine differs from the campaign aggregate:\n engine    %+v\n aggregate %+v", got, sum.Metrics)
	}
}
