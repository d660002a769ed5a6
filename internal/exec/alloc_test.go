package exec

import (
	"testing"
)

// Allocation budgets of one run, exact at the time they were set. Nearly
// all of a run's allocations are per-run setup (ranks, worker threads,
// nodes, noise streams), so they scale with ranks × threads and not with
// the event count; a budget overrun means something started allocating
// per event. Lower a budget when a change beats it, never raise it
// without a measured reason.
const (
	runAllocBudget      = 537
	governedAllocBudget = 555
	// A governed run costs one run: the governor may add only its own
	// per-rank state, not per-iteration garbage.
	governorAllocMargin = 18
)

func runAllocs(t *testing.T, req Request) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocBudget pins the allocations of BenchmarkRun's fixture, and
// of the same run under the phase-predictive governor.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	plain := runAllocs(t, runFixture())
	governed := runAllocs(t, governedFixture(t))
	t.Logf("run %v allocs, governed run %v allocs", plain, governed)
	if plain > runAllocBudget {
		t.Errorf("run allocates %v times, budget %d", plain, runAllocBudget)
	}
	if governed > governedAllocBudget {
		t.Errorf("governed run allocates %v times, budget %d", governed, governedAllocBudget)
	}
	if governed-plain > governorAllocMargin {
		t.Errorf("governor adds %v allocations to a run, budget %d", governed-plain, governorAllocMargin)
	}
}

// sweepAllocBudget pins BenchmarkSweep's fixture. It runs with one
// worker: with several, the count moves by one or two with scheduling.
const sweepAllocBudget = 1060

// TestSweepAllocBudget pins the allocations of a sweep: the runs plus
// the sweep engine's own bookkeeping.
func TestSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	reqs := sweepFixture()
	got := testing.AllocsPerRun(3, func() {
		if _, err := Sweep(reqs, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sweep %v allocs", got)
	if got > sweepAllocBudget {
		t.Errorf("sweep allocates %v times, budget %d", got, sweepAllocBudget)
	}
}
