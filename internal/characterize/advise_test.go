package characterize

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybridperf/internal/core"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/exec"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

func adviseFixture(t testing.TB) (*core.Model, *machine.Profile, *workload.Spec) {
	t.Helper()
	prof := machine.XeonE5()
	spec := workload.SP()
	sum, err := Run(prof, spec, Options{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(sum.Inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, prof, spec
}

func TestAdvise(t *testing.T) {
	m, prof, spec := adviseFixture(t)
	opt := AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 42, Workers: 2}
	adv, err := Advise(m, prof, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(adv.Policies); got != len(dvfs.Policies()) {
		t.Fatalf("got %d policy outcomes, want %d", got, len(dvfs.Policies()))
	}
	if adv.Static.Cfg.Nodes != 2 || adv.Static.Cfg.Cores != 4 {
		t.Fatalf("static point moved off the requested shape: %v", adv.Static.Cfg)
	}
	if !prof.HasFrequency(adv.Static.Cfg.Freq) {
		t.Fatalf("static frequency %g is not a DVFS level", adv.Static.Cfg.Freq)
	}
	if !(adv.BaselineTimeS > 0) || !(adv.BaselineEnergyJ > 0) {
		t.Fatalf("degenerate baseline: T=%g E=%g", adv.BaselineTimeS, adv.BaselineEnergyJ)
	}
	if !dvfs.ValidPolicy(adv.Recommended) {
		t.Fatalf("recommended %q is not a policy", adv.Recommended)
	}
	for i, out := range adv.Policies {
		if out.Policy != dvfs.Policies()[i] {
			t.Errorf("policy order: got %q at %d", out.Policy, i)
		}
		if math.IsNaN(out.TimeDelta) || math.IsNaN(out.EnergyDelta) {
			t.Errorf("%s: NaN deltas", out.Policy)
		}
		if len(out.Schedule) == 0 {
			t.Errorf("%s: empty frequency schedule", out.Policy)
		} else if first := out.Schedule[0]; first.Iter != 0 || first.Freq != adv.Static.Cfg.Freq {
			t.Errorf("%s: schedule opens with %v, want {0, %g}", out.Policy, first, adv.Static.Cfg.Freq)
		}
		// The fixed policy is the static oracle: bit-identical to the
		// ungoverned baseline by construction.
		if out.Policy == dvfs.PolicyFixed {
			if out.TimeDelta != 0 || out.EnergyDelta != 0 {
				t.Errorf("fixed policy deltas not exactly zero: dT=%g dE=%g", out.TimeDelta, out.EnergyDelta)
			}
			if len(out.Schedule) != 1 {
				t.Errorf("fixed policy changed frequency: %v", out.Schedule)
			}
		}
	}
	if adv.Runs != 1+len(adv.Policies) {
		t.Errorf("attribution runs = %d, want %d", adv.Runs, 1+len(adv.Policies))
	}

	// Deterministic: the whole advice, schedules included, must reproduce
	// bit-for-bit.
	again, err := Advise(m, prof, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adv, again) {
		t.Error("advice is not deterministic across repeated evaluations")
	}
}

// TestAdviseFixedIsDerived: the "fixed" outcome is derived from the
// baseline, not simulated — a fixed-only advice runs one simulation and
// the full suite three — and it equals what simulating a Fixed governor
// at the static point, with rank 0's schedule recorded, reports.
func TestAdviseFixedIsDerived(t *testing.T) {
	m, prof, spec := adviseFixture(t)
	observed := func(policies ...string) (*Advice, int) {
		t.Helper()
		var runs atomic.Int32 // the governed runs observe concurrently
		adv, err := Advise(m, prof, spec, AdviseOptions{
			Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 42, Workers: 2,
			Policies: policies,
			Observe:  func(string, time.Time, time.Time) { runs.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return adv, int(runs.Load())
	}
	full, runs := observed()
	if runs != 3 {
		t.Errorf("full suite fired Observe %d times, want 3", runs)
	}
	fixed, runs := observed(dvfs.PolicyFixed)
	if runs != 1 {
		t.Errorf("fixed-only advice fired Observe %d times, want 1", runs)
	}
	if fixed.Runs != 2 || fixed.SimSeconds != 2*fixed.BaselineTimeS || fixed.SimEnergyJ != 2*fixed.BaselineEnergyJ {
		t.Errorf("fixed-only attribution changed: runs %d, %g s, %g J", fixed.Runs, fixed.SimSeconds, fixed.SimEnergyJ)
	}
	// A subset's outcomes are the full suite's, policy by policy.
	sub, _ := observed(dvfs.PolicyPhase, dvfs.PolicyFixed)
	for _, got := range append(fixed.Policies, sub.Policies...) {
		for _, want := range full.Policies {
			if got.Policy == want.Policy && !reflect.DeepEqual(got, want) {
				t.Errorf("%s outcome differs between a subset and the full suite:\n got  %+v\n want %+v", got.Policy, got, want)
			}
		}
	}

	rec := &dvfs.ScheduleRecorder{G: dvfs.Fixed(full.Static.Cfg.Freq)}
	res, err := exec.Run(exec.Request{
		Prof: prof, Spec: spec, Class: workload.ClassS, Cfg: full.Static.Cfg, Seed: 42,
		Governor: func(rank int) dvfs.Governor {
			if rank == 0 {
				return rec
			}
			return dvfs.Fixed(full.Static.Cfg.Freq)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := PolicyOutcome{
		Policy:      dvfs.PolicyFixed,
		TimeS:       res.Time,
		EnergyJ:     res.Energy.Total(),
		TimeDelta:   res.Time/full.BaselineTimeS - 1,
		EnergyDelta: res.Energy.Total()/full.BaselineEnergyJ - 1,
		Schedule:    rec.Schedule(),
	}
	if !reflect.DeepEqual(full.Policies[0], want) {
		t.Errorf("derived fixed outcome differs from the simulated one:\n got  %+v\n want %+v", full.Policies[0], want)
	}
}

func TestAdviseValidation(t *testing.T) {
	m, prof, spec := adviseFixture(t)
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 99, Cores: 4, Seed: 1}); err == nil {
		t.Error("over-sized node count accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 1, Policies: []string{"turbo"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: workload.ClassS, Nodes: 2, Cores: 4, Seed: 1, MaxSlowdown: 2}); err == nil {
		t.Error("out-of-range MaxSlowdown accepted")
	}
	if _, err := Advise(m, prof, spec, AdviseOptions{Class: "Z", Nodes: 2, Cores: 4, Seed: 1}); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestAdviseBaselineAllocBudget: the phase prior is summed while the
// advise baseline runs, not buffered as a timeline, so asking for it
// costs the baseline at most a quarter more heap than the same run
// without it (buffering every core-0 phase event cost about 6x on this
// fixture, 20k events for LU class A on 8x8).
func TestAdviseBaselineAllocBudget(t *testing.T) {
	base := exec.Request{
		Prof: machine.XeonE5(), Spec: workload.LU(), Class: workload.ClassA,
		Cfg: machine.Config{Nodes: 8, Cores: 8, Freq: 1.8e9}, Seed: 42,
	}
	allocated := func(req exec.Request) uint64 {
		// The minimum over a few runs discards stray background allocation.
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := exec.Run(req); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	withPrior := base
	withPrior.PhaseTotals = true
	plain, prior := allocated(base), allocated(withPrior)
	if float64(prior) > 1.25*float64(plain) {
		t.Fatalf("baseline with the phase prior allocated %d B, %.2fx the %d B of the plain run (budget 1.25x)",
			prior, float64(prior)/float64(plain), plain)
	}
}
