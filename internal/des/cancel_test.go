package des

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
)

// ticker is a Machine that advances dt(i) for i = 0..n-1, calling before(i)
// (when set) ahead of each advance; done counts completed advances.
type ticker struct {
	n, done int
	dt      func(i int) float64
	before  func(i int)
	armed   bool
}

func (m *ticker) Step(p *Proc) bool {
	for m.done < m.n {
		if !m.armed {
			if m.before != nil {
				m.before(m.done)
			}
			m.armed = true
			if !p.AdvanceArm(m.dt(m.done)) {
				return false
			}
		}
		m.armed = false
		m.done++
	}
	return true
}

func unit(int) float64 { return 1 }

// TestRunPreCancelledContext: a context cancelled before Run stops the
// run at the upfront check — no process body ever executes, and the
// error unwraps to context.Canceled.
func TestRunPreCancelledContext(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("p", &ticker{n: 1, dt: unit, before: func(int) { ran = true }})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k.SetContext(ctx)
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("process body ran under a pre-cancelled context")
	}
	if k.Err() == nil {
		t.Fatal("kernel did not record the cancellation")
	}
}

// TestCancelStopsEventDispatch cancels mid-run from inside the
// simulation: two processes ping-pong through the event queue (so every
// step is a real dispatch), one of them cancels partway, and the run
// must stop within one poll interval instead of draining the remaining
// work.
func TestCancelStopsEventDispatch(t *testing.T) {
	const total = 100 * ctxPollInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := NewKernel()
	k.SetContext(ctx)
	a := &ticker{n: total, dt: unit, before: func(i int) {
		if i == 10 {
			cancel()
		}
	}}
	k.Spawn("a", a)
	k.Spawn("b", &ticker{n: total, dt: unit})
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if a.done >= total {
		t.Fatalf("process completed all %d steps despite cancellation", total)
	}
	// The poll runs every ctxPollInterval steps, so the overshoot past
	// the cancel point is bounded.
	if a.done > 10+2*ctxPollInterval {
		t.Fatalf("run continued for %d steps after cancelling at step 10", a.done)
	}
}

// TestCancelStopsLookaheadFastPath pins the single-process case: a lone
// compute loop advances through the lookahead fast path and dispatches
// almost no events, so the poll must ride AdvanceArm itself for the
// cancellation to land.
func TestCancelStopsLookaheadFastPath(t *testing.T) {
	const total = 100 * ctxPollInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := NewKernel()
	k.SetContext(ctx)
	solo := &ticker{n: total, dt: unit, before: func(i int) {
		if i == 10 {
			cancel()
		}
	}}
	k.Spawn("solo", solo)
	err := k.Run(math.Inf(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if solo.done > 10+2*ctxPollInterval {
		t.Fatalf("fast path ran %d steps after cancelling at step 10", solo.done)
	}
}

// TestUncancelledContextBitIdentical is the determinism half of the
// contract: attaching a live (cancellable, never cancelled) context must
// not perturb the simulation in any observable way.
func TestUncancelledContextBitIdentical(t *testing.T) {
	run := func(ctx context.Context) (float64, uint64) {
		k := NewKernel()
		if ctx != nil {
			k.SetContext(ctx)
		}
		for i := 0; i < 4; i++ {
			k.Spawn("p", &ticker{n: 3000, dt: func(s int) float64 { return float64(1 + (i+s)%7) }})
		}
		if err := k.Run(math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.Events()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bareT, bareE := run(nil)
	ctxT, ctxE := run(ctx)
	if bareT != ctxT || bareE != ctxE {
		t.Fatalf("context-bearing run diverged: (t=%g, events=%d) vs (t=%g, events=%d)",
			ctxT, ctxE, bareT, bareE)
	}
}

// TestSetContextBackgroundDisablesPolling: contexts that can never be
// cancelled (nil Done channel) must not arm the poll at all.
func TestSetContextBackgroundDisablesPolling(t *testing.T) {
	k := NewKernel()
	k.SetContext(context.Background())
	if k.ctx != nil {
		t.Fatal("Background context armed the cancellation poll")
	}
	k.SetContext(nil)
	if k.ctx != nil {
		t.Fatal("nil context armed the cancellation poll")
	}
}

// TestCancelledRunReapsGoroutines: a cancelled run — pooled runners
// included — leaves no goroutine behind, because the kernel never starts
// one for a simulated process.
func TestCancelledRunReapsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := NewKernel()
	k.SetContext(ctx)
	k.Spawn("worker", &ticker{n: math.MaxInt, dt: func(int) float64 { return 2 }, before: func(i int) {
		if i == 5 {
			cancel()
		}
		k.Go("task", &ticker{n: 1, dt: unit})
	}})
	if err := k.Run(math.Inf(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if k.Procs() < 2 {
		t.Fatalf("%d processes spawned, want the worker plus pooled runners", k.Procs())
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the cancelled run, %d before", got, before)
	}
}
