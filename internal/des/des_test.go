package des_test

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

// record returns a step that appends s to *order.
func record(order *[]string, s string) destest.Step {
	return destest.Do(func(*des.Proc) { *order = append(*order, s) })
}

func TestAdvanceOrdersEvents(t *testing.T) {
	k := des.NewKernel()
	var order []string
	k.Spawn("b", destest.Script(destest.Advance(2), record(&order, "b@2")))
	k.Spawn("a", destest.Script(
		destest.Advance(1), record(&order, "a@1"),
		destest.Advance(3), record(&order, "a@4"),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "a@1 b@2 a@4"; got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if k.Now() != 4 {
		t.Fatalf("Now() = %g, want 4", k.Now())
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	k := des.NewKernel()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		k.Spawn(name, destest.Script(destest.Advance(1), record(&order, name))) // all wake at t=1
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "p0 p1 p2" {
		t.Fatalf("tie-break order %v, want spawn order", got)
	}
}

func TestNegativeAndNaNAdvance(t *testing.T) {
	k := des.NewKernel()
	atZero := func(what string) destest.Step {
		return destest.Do(func(p *des.Proc) {
			if p.Now() != 0 {
				t.Errorf("%s advance moved clock to %g", what, p.Now())
			}
		})
	}
	k.Spawn("p", destest.Script(
		destest.Advance(-5), atZero("negative"),
		destest.Advance(math.NaN()), atZero("NaN"),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

func TestHaltAndWake(t *testing.T) {
	k := des.NewKernel()
	var woken float64
	target := k.Spawn("sleeper", destest.Script(destest.Halt(), destest.Do(func(p *des.Proc) { woken = p.Now() })))
	k.Spawn("waker", destest.Script(destest.Advance(5), destest.Do(func(*des.Proc) { target.Wake() })))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("sleeper woke at %g, want 5", woken)
	}
}

func TestWakeNonHaltedPanics(t *testing.T) {
	k := des.NewKernel()
	first := k.Spawn("a", destest.Script(destest.Advance(1)))
	// first has a pending wake event, not halted.
	k.Spawn("b", destest.Script(destest.Do(func(*des.Proc) { first.Wake() })))
	// The panic retires process "b"; Run reports it as a failure.
	err := k.Run(math.Inf(1))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Run() = %v, want panic failure", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := des.NewKernel()
	k.Spawn("stuck1", destest.Script(destest.Halt()))
	k.Spawn("stuck2", destest.Script(destest.Halt()))
	err := k.Run(math.Inf(1))
	de, ok := err.(*des.DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *des.DeadlockError", err)
	}
	if len(de.Procs) != 2 {
		t.Fatalf("deadlocked procs = %v, want 2", de.Procs)
	}
	if !strings.Contains(de.Error(), "stuck1") {
		t.Fatalf("error %q does not name the stuck process", de.Error())
	}
}

func TestPanicPropagation(t *testing.T) {
	k := des.NewKernel()
	k.Spawn("boom", destest.Script(destest.Advance(1), destest.Do(func(*des.Proc) { panic("kaboom") })))
	k.Spawn("bystander", destest.Script(destest.Repeat(100, destest.Advance(1))))
	err := k.Run(math.Inf(1))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run() = %v, want propagated panic", err)
	}
	if k.Err() == nil {
		t.Fatal("kernel did not record the failure")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := des.NewKernel()
	steps := 0
	k.Spawn("ticker", destest.Script(destest.Repeat(10,
		destest.Advance(1), destest.Do(func(*des.Proc) { steps++ }),
	)))
	if err := k.Run(3.5); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps at horizon = %d, want 3", steps)
	}
	// Resuming continues from where the run stopped.
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("steps after resume = %d, want 10", steps)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	trace := func(seed int64) string {
		k := des.NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			var steps []destest.Step
			for j := 0; j < 20; j++ {
				steps = append(steps, destest.Advance(rng.Float64()), record(&out, name))
			}
			k.Spawn(name, destest.Script(steps...))
		}
		if err := k.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, "")
	}
	a, b := trace(42), trace(42)
	if a != b {
		t.Fatal("identical seeds produced different interleavings")
	}
	if c := trace(43); a == c {
		t.Fatal("different seeds produced identical interleavings (suspicious)")
	}
}

// TestVirtualTimeMatchesSortedDelays checks, property-style, that for any
// set of one-shot processes the completion order equals the sorted delays.
func TestVirtualTimeMatchesSortedDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		delays := make([]float64, n)
		for i := range delays {
			delays[i] = rng.Float64() * 100
		}
		k := des.NewKernel()
		var done []float64
		for _, d := range delays {
			k.Spawn("p", destest.Script(destest.Advance(d), destest.Do(func(p *des.Proc) {
				done = append(done, p.Now())
			})))
		}
		if err := k.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), delays...)
		sort.Float64s(want)
		for i := range want {
			if done[i] != want[i] {
				t.Fatalf("trial %d: completions %v != sorted delays %v", trial, done, want)
			}
		}
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := des.NewKernel()
	var childTime float64
	k.Spawn("parent", destest.Script(
		destest.Advance(2),
		destest.Do(func(*des.Proc) {
			k.Spawn("child", destest.Script(destest.Advance(3), destest.Do(func(c *des.Proc) { childTime = c.Now() })))
		}),
		destest.Advance(10),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if childTime != 5 {
		t.Fatalf("child finished at %g, want 5", childTime)
	}
}

func TestProcAccessors(t *testing.T) {
	k := des.NewKernel()
	k.Spawn("named", destest.Script(destest.Do(func(p *des.Proc) {
		if p.Name() != "named" {
			t.Errorf("Name() = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
	})))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}
