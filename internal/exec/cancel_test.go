package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// stepRank is a rank Machine for the rankMachine failure seam: it calls
// onStep and then advances the clock by a microsecond, steps times, and
// reports err through Err (the rankFailer contract).
type stepRank struct {
	env    *workload.Env
	steps  int
	onStep func(env *workload.Env, i int)
	err    error
	i      int
}

func (m *stepRank) Step(p *des.Proc) bool {
	for m.i < m.steps {
		if m.onStep != nil {
			m.onStep(m.env, m.i)
		}
		m.i++
		if !p.AdvanceArm(1e-6) {
			return false
		}
	}
	return true
}

func (m *stepRank) Err() error { return m.err }

// TestRunPreCancelledContext: a request whose context is already dead
// fails before the kernel is even built.
func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	_, err := Run(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
}

// TestRunCancelledMidSimulation cancels from inside the simulation via
// the rankMachine seam: rank 0 cancels after a few steps and then keeps
// computing, so the kernel's cooperative poll has to stop the run.
func TestRunCancelledMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	steps := 0
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		return &stepRank{env: env, steps: 100000, onStep: func(env *workload.Env, i int) {
			if env.Rank.ID() == 0 {
				if i == 5 {
					cancel()
				}
				steps++
			}
		}}, nil
	}
	_, err := Run(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if steps >= 100000 {
		t.Fatal("rank 0 completed every step despite cancelling at step 5")
	}
}

// TestRunUncancelledContextIdentical: a live but never-cancelled context
// must leave the measurement bit-identical to a context-free run.
func TestRunUncancelledContextIdentical(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 4, Freq: 1.8e9})
	bare, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Ctx = ctx
	withCtx, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Time != withCtx.Time || bare.MeasuredEnergy != withCtx.MeasuredEnergy {
		t.Fatalf("context-bearing run diverged: T %g vs %g, E %g vs %g",
			withCtx.Time, bare.Time, withCtx.MeasuredEnergy, bare.MeasuredEnergy)
	}
	if bare.Totals != withCtx.Totals {
		t.Fatal("counters differ with a context attached")
	}
	if bare.Engine.Events != withCtx.Engine.Events {
		t.Fatalf("event counts differ: %d vs %d", withCtx.Engine.Events, bare.Engine.Events)
	}
}

// TestRunAggregatesRankErrors: every failing rank must appear in the
// returned error, not just the first one observed.
func TestRunAggregatesRankErrors(t *testing.T) {
	sentinel := errors.New("rank blew up")
	req := xeonReq(machine.Config{Nodes: 4, Cores: 1, Freq: 1.8e9})
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		m := &stepRank{env: env, steps: 1}
		if env.Rank.ID()%2 == 1 {
			m.err = fmt.Errorf("rank %d: %w", env.Rank.ID(), sentinel)
		}
		return m, nil
	}
	_, err := Run(req)
	if err == nil {
		t.Fatal("Run swallowed rank failures")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the cause through the join: %v", err)
	}
	for _, want := range []string{"rank 1", "rank 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregated error %q is missing %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "rank 0") || strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("aggregated error %q names a healthy rank", err)
	}
}

// TestSweepCancelledRequests: cancelling the shared context fails the
// whole sweep — queued requests stop at their upfront check.
func TestSweepCancelledRequests(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var reqs []Request
	for i := 0; i < 6; i++ {
		r := xeonReq(machine.Config{Nodes: 1, Cores: 1, Freq: 1.8e9})
		r.Seed = int64(i)
		r.Ctx = ctx
		reqs = append(reqs, r)
	}
	_, err := Sweep(reqs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep() = %v, want context.Canceled", err)
	}
}
