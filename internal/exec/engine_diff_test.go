package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// assertSameRun fails unless two results of the same request agree bit
// for bit on everything that measures the simulation: times, energies,
// communication profile, counter totals, engine stats, and — when both
// recorded them — the phase trace and the engine counters.
func assertSameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Time != want.Time {
		t.Errorf("Time diverged: %x vs %x", got.Time, want.Time)
	}
	if got.Energy != want.Energy {
		t.Errorf("Energy diverged: %+v vs %+v", got.Energy, want.Energy)
	}
	if got.MeasuredEnergy != want.MeasuredEnergy {
		t.Errorf("measured energy diverged: %x vs %x", got.MeasuredEnergy, want.MeasuredEnergy)
	}
	if got.Comm != want.Comm {
		t.Errorf("communication profile diverged:\n got  %+v\n want %+v", got.Comm, want.Comm)
	}
	if got.Totals != want.Totals || got.MemWait != want.MemWait {
		t.Errorf("counter totals diverged:\n got  %+v mem %x\n want %+v mem %x",
			got.Totals, got.MemWait, want.Totals, want.MemWait)
	}
	if got.Engine != want.Engine {
		t.Errorf("engine stats diverged: %+v vs %+v", got.Engine, want.Engine)
	}
	if got.Trace != nil && want.Trace != nil {
		if got.MeasuredUCR != want.MeasuredUCR {
			t.Errorf("measured UCR diverged: %x vs %x", got.MeasuredUCR, want.MeasuredUCR)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("trace lengths diverged: %d vs %d", len(got.Trace), len(want.Trace))
		}
		for j := range want.Trace {
			if got.Trace[j] != want.Trace[j] {
				t.Fatalf("trace event %d diverged:\n got  %+v\n want %+v", j, got.Trace[j], want.Trace[j])
			}
		}
	}
	if got.Metrics != nil && want.Metrics != nil {
		if g, w := got.Metrics.Engine, want.Metrics.Engine; g != w {
			t.Errorf("engine counters diverged:\n got  %+v\n want %+v", g, w)
		}
	}
}

// TestEngineDifferential is the engine's randomized property test:
// seeded (profile, program, nodes, cores, frequency, seed) configurations
// must give bit-identical results whether or not the run records its
// phase trace and engine counters (instrumentation never feeds back), and
// an instrumented rerun must reproduce the trace and every counter. The
// seven goldens pin the values themselves; this test covers the rest of
// the configuration space. The generator is seeded, so failures
// reproduce.
func TestEngineDifferential(t *testing.T) {
	profs := []*machine.Profile{machine.XeonE5(), machine.ARMCortexA9(), xeonCrossbar()}
	specs := append(workload.Extended(), imbalancedSpec())
	rnd := rand.New(rand.NewSource(20260808))
	cases := 24
	if testing.Short() {
		cases = 6
	}
	for i := 0; i < cases; i++ {
		prof := profs[rnd.Intn(len(profs))]
		spec := specs[rnd.Intn(len(specs))]
		n := 1 + rnd.Intn(4)
		c := 1 + rnd.Intn(prof.CoresPerNode)
		if c > 4 {
			c = 4
		}
		f := prof.Frequencies[rnd.Intn(len(prof.Frequencies))]
		req := Request{
			Prof:  prof,
			Spec:  spec,
			Class: workload.ClassTest,
			Cfg:   machine.Config{Nodes: n, Cores: c, Freq: f},
			Seed:  rnd.Int63(),
		}
		name := fmt.Sprintf("%02d-%s-%s-%dx%d-%.1fGHz", i, prof.Name, spec.Name, n, c, f/1e9)
		t.Run(name, func(t *testing.T) {
			bare, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			inst := req
			inst.Trace, inst.Metrics = true, true
			first, err := Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, first, bare)
			assertSameRun(t, again, first)
		})
	}
}
