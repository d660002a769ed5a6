package des_test

import (
	"math"
	"math/rand"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/queueing"
)

func TestResourceSerializes(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	var finish []float64
	for i := 0; i < 3; i++ {
		k.Spawn("c", destest.Script(
			destest.Serve(r, 2, nil),
			destest.Do(func(p *des.Proc) { finish = append(finish, p.Now()) }),
		))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFCFSOrder(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	var order []int
	for i := 0; i < 5; i++ {
		k.Spawn("c", destest.Script(
			destest.Advance(float64(i)*0.1), // arrive in index order
			destest.Serve(r, 1, nil),
			destest.Do(func(*des.Proc) { order = append(order, i) }),
		))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order %v is not FCFS", order)
		}
	}
}

func TestResourceWaitAccounting(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	waits := make([]float64, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("c", destest.Script(destest.Serve(r, 4, &waits[i])))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 4, 8} {
		if waits[i] != want {
			t.Fatalf("waits = %v, want [0 4 8]", waits)
		}
	}
	s := r.Stats()
	if s.Served != 3 {
		t.Fatalf("Served = %d, want 3", s.Served)
	}
	if s.MeanWait != 4 {
		t.Fatalf("MeanWait = %g, want 4", s.MeanWait)
	}
	if s.MeanService != 4 {
		t.Fatalf("MeanService = %g, want 4", s.MeanService)
	}
	if s.Utilization != 1 { // server busy from 0 to 12, elapsed 12
		t.Fatalf("Utilization = %g, want 1", s.Utilization)
	}
}

func TestResourceUtilizationWithIdle(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	k.Spawn("c", destest.Script(
		destest.Serve(r, 1, nil),
		destest.Advance(3), // idle gap
		destest.Serve(r, 1, nil),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if u := r.Stats().Utilization; math.Abs(u-0.4) > 1e-12 {
		t.Fatalf("Utilization = %g, want 0.4", u)
	}
}

func TestResourceReset(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	k.Spawn("c", destest.Script(
		destest.Serve(r, 1, nil),
		destest.Do(func(*des.Proc) { r.Reset() }),
		destest.Serve(r, 2, nil),
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Served != 1 || s.TotalService != 2 {
		t.Fatalf("after reset: %+v, want 1 request of service 2", s)
	}
	if math.Abs(s.Utilization-1) > 1e-12 {
		t.Fatalf("post-reset utilization = %g, want 1", s.Utilization)
	}
}

func TestAcquireReleaseHandoff(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	release := destest.Do(func(*des.Proc) { r.Release() })
	var wait, grantedAt float64
	k.Spawn("holder", destest.Script(destest.Acquire(r, nil), destest.Advance(5), release))
	k.Spawn("waiter", destest.Script(
		destest.Advance(1),
		destest.Acquire(r, &wait),
		destest.Do(func(p *des.Proc) { grantedAt = p.Now() }),
		release,
	))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if wait != 4 || grantedAt != 5 {
		t.Fatalf("waiter wait=%g granted at %g, want 4 at 5", wait, grantedAt)
	}
	if r.Busy() {
		t.Fatal("resource still busy after all releases")
	}
	if r.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestResourceQueueReusesBackingArray pins the copy-down pop in Release:
// a queue that never holds more than a few waiters keeps one backing
// array, so a long run of contended grants allocates nothing.
func TestResourceQueueReusesBackingArray(t *testing.T) {
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	for i := 0; i < 4; i++ {
		k.Spawn("c", destest.Script(destest.Repeat(1000, destest.Serve(r, 1, nil))))
	}
	// Each call runs the next 500 s window: 500 grants with three waiters
	// queued behind the holder.
	horizon := 0.5
	allocs := testing.AllocsPerRun(4, func() {
		horizon += 500
		if err := k.Run(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if got := r.Stats().Served; got != 2501 { // grants at t = 0, 1, ..., 2500
		t.Fatalf("served %d after five windows, want 2501", got)
	}
	if allocs > 0 {
		t.Fatalf("%v allocations per 500 contended grants, want 0", allocs)
	}
}

// TestMM1AgainstTheory drives the resource with Poisson arrivals and
// exponential service and compares the simulated mean wait with the M/M/1
// closed form — the cross-validation between the simulator and the
// queueing package the analytical model builds on.
func TestMM1AgainstTheory(t *testing.T) {
	const (
		lambda  = 0.7
		service = 1.0
		n       = 30000
	)
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	rng := rand.New(rand.NewSource(99))
	arrivals := make([]float64, n)
	tArr := 0.0
	for i := range arrivals {
		tArr += rng.ExpFloat64() / lambda
		arrivals[i] = tArr
	}
	services := make([]float64, n)
	for i := range services {
		services[i] = rng.ExpFloat64() * service
	}
	for i := 0; i < n; i++ {
		k.Spawn("job", destest.Script(destest.Advance(arrivals[i]), destest.Serve(r, services[i], nil)))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MM1Wait(lambda, service)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Stats().MeanWait
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("simulated M/M/1 wait %.3f vs theory %.3f (>10%% off)", got, want)
	}
}

// TestMD1AgainstTheory repeats the comparison with deterministic service,
// where the P-K formula predicts half the M/M/1 wait.
func TestMD1AgainstTheory(t *testing.T) {
	const (
		lambda  = 0.6
		service = 1.0
		n       = 30000
	)
	k := des.NewKernel()
	r := des.NewResource(k, "srv")
	rng := rand.New(rand.NewSource(5))
	tArr := 0.0
	for i := 0; i < n; i++ {
		tArr += rng.ExpFloat64() / lambda
		k.Spawn("job", destest.Script(destest.Advance(tArr), destest.Serve(r, service, nil)))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MD1Wait(lambda, service)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Stats().MeanWait
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("simulated M/D/1 wait %.3f vs theory %.3f (>10%% off)", got, want)
	}
}
