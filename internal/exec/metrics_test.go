package exec

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/metrics"
	"hybridperf/internal/trace"
	"hybridperf/internal/workload"
)

// TestSharedMetricsConcurrentRunsExact: two runs publishing into one
// shared Engine at the same time each report exactly their own tally, and
// the Engine ends up holding exactly the sum. Run under -race this also
// pins that the kernels never write the shared Engine concurrently with
// anything but its atomic publish.
func TestSharedMetricsConcurrentRunsExact(t *testing.T) {
	shared := metrics.NewEngine()
	reqs := []Request{
		xeonReq(machine.Config{Nodes: 4, Cores: 4, Freq: 1.8e9}),
		xeonReq(machine.Config{Nodes: 2, Cores: 8, Freq: 1.5e9}),
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i].SharedMetrics = shared
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(reqs[i])
		}(i)
	}
	wg.Wait()
	var sum metrics.EngineSnapshot
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Metrics == nil {
			t.Fatalf("run %d: shared-engine run carries no metrics", i)
		}
		if got, want := res.Metrics.Engine.Events, res.Engine.Events; got != want {
			t.Errorf("run %d: Metrics.Engine.Events = %d, want its own %d", i, got, want)
		}
		alone, err := Run(Request{Prof: reqs[i].Prof, Spec: reqs[i].Spec, Class: reqs[i].Class,
			Cfg: reqs[i].Cfg, Seed: reqs[i].Seed, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Engine != alone.Metrics.Engine {
			t.Errorf("run %d: concurrent tally differs from the same run alone:\n got  %+v\n want %+v",
				i, res.Metrics.Engine, alone.Metrics.Engine)
		}
		sum.Add(res.Metrics.Engine)
	}
	if got := shared.Snapshot(); got != sum {
		t.Fatalf("shared engine total differs from the sum of the runs:\n got  %+v\n want %+v", got, sum)
	}
	if got, want := shared.Snapshot().Events, results[0].Engine.Events+results[1].Engine.Events; got != want {
		t.Fatalf("shared engine events = %d, want %d", got, want)
	}
}

// TestSharedMetricsPublishedOnce: the shared Engine does not move while a
// run is in flight and moves by exactly the run's tally when it returns;
// a run cancelled mid-simulation still publishes what it dispatched.
func TestSharedMetricsPublishedOnce(t *testing.T) {
	shared := metrics.NewEngine()
	var inFlight []metrics.EngineSnapshot
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.SharedMetrics = shared
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		return &stepRank{env: env, steps: 50, onStep: func(*workload.Env, int) {
			inFlight = append(inFlight, shared.Snapshot())
		}}, nil
	}
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(inFlight) != 100 {
		t.Fatalf("observed %d in-flight steps, want 100", len(inFlight))
	}
	for i, s := range inFlight {
		if s != (metrics.EngineSnapshot{}) {
			t.Fatalf("shared engine moved mid-run at step %d: %+v", i, s)
		}
	}
	if res.Metrics == nil || res.Metrics.Engine.Events == 0 {
		t.Fatal("run recorded no tally")
	}
	if got := shared.Snapshot(); got != res.Metrics.Engine {
		t.Fatalf("engine moved by %+v, want exactly the run's tally %+v", got, res.Metrics.Engine)
	}

	// Cancelled mid-run: no Result, but the events dispatched before the
	// cancellation are published all the same — once, at return.
	pre := shared.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.Ctx = ctx
	inFlight = inFlight[:0]
	req.rankMachine = func(env *workload.Env) (des.Machine, error) {
		return &stepRank{env: env, steps: 100000, onStep: func(env *workload.Env, i int) {
			inFlight = append(inFlight, shared.Snapshot())
			if env.Rank.ID() == 0 && i == 5 {
				cancel()
			}
		}}, nil
	}
	if _, err := Run(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	for i, s := range inFlight {
		if s != pre {
			t.Fatalf("shared engine moved mid-run at step %d of the cancelled run", i)
		}
	}
	if got := shared.Snapshot().Sub(pre); got.Events == 0 {
		t.Fatalf("cancelled run published %+v, want its dispatched events", got)
	}
}

// TestPhaseTotalsMatchTrace: the streamed per-(rank, kind) totals equal
// trace.Summary of the fully recorded timeline exactly — same float
// additions in the same order — on every golden configuration, without
// perturbing the run and without populating Result.Trace.
func TestPhaseTotalsMatchTrace(t *testing.T) {
	for name, req := range goldenCases() {
		name, req := name, req
		t.Run(name, func(t *testing.T) {
			traced := req
			traced.Trace = true
			want, err := Run(traced)
			if err != nil {
				t.Fatal(err)
			}
			streamed := req
			streamed.PhaseTotals = true
			got, err := Run(streamed)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, got, want)
			if len(got.Trace) != 0 {
				t.Errorf("PhaseTotals populated Result.Trace (%d events)", len(got.Trace))
			}
			// DeepEqual compares the float totals with ==: no tolerance.
			sum := trace.Summary(want.Trace)
			if len(sum) == 0 || !reflect.DeepEqual(got.PhaseTotals, sum) {
				t.Fatalf("streamed totals differ from the recorded trace's summary:\n got  %v\n want %v",
					got.PhaseTotals, sum)
			}
		})
	}
}
