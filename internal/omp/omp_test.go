package omp

import (
	"math"
	"sort"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
	"hybridperf/internal/node"
)

func team(k *des.Kernel, cores int) *Team {
	prof := machine.XeonE5()
	return NewTeam(k, node.New(k, prof, 0, cores, prof.FMax(), nil))
}

func run(t *testing.T, k *des.Kernel) {
	t.Helper()
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

// bodyFunc adapts a function to a Body.
type bodyFunc func(th *Thread) bool

func (b bodyFunc) Step(th *Thread) bool { return b(th) }

// region is one `omp parallel` region as a script step of the master
// process: mk builds each thread's share of the body, the master running
// tid 0 inline before the join.
func region(tm *Team, mk func(tid int) Body) destest.Step {
	master := mk(0)
	var th *Thread
	pc := 0
	return func(p *des.Proc) bool {
		switch pc {
		case 0:
			th = tm.RegionBegin(p, mk)
			pc = 1
			fallthrough
		case 1:
			if !master.Step(th) {
				return false
			}
			pc = 2
			if !tm.RegionJoinArm(p) {
				return false
			}
		}
		pc = 0
		return true
	}
}

// each builds every thread's share from the same function.
func each(f func(th *Thread) bool) func(tid int) Body {
	return func(int) Body { return bodyFunc(f) }
}

// compute gives thread tid a compute burst of units(tid) work units.
func compute(units func(tid int) float64) func(tid int) Body {
	return func(tid int) Body {
		var op node.ComputeOp
		op.Set(units(tid), 0)
		return bodyFunc(func(th *Thread) bool { return th.ComputeStep(&op) })
	}
}

func TestParallelRunsEveryThread(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 4)
	var tids []int
	k.Spawn("master", destest.Script(region(tm, each(func(th *Thread) bool {
		tids = append(tids, th.ID)
		return true
	}))))
	run(t, k)
	sort.Ints(tids)
	if len(tids) != 4 {
		t.Fatalf("ran %d threads, want 4", len(tids))
	}
	for i, tid := range tids {
		if tid != i {
			t.Fatalf("thread ids %v, want 0..3", tids)
		}
	}
}

func TestParallelImplicitBarrier(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 4)
	f := machine.XeonE5().FMax()
	var joined float64
	k.Spawn("master", destest.Script(
		// Thread i computes i+1 seconds of work.
		region(tm, compute(func(tid int) float64 { return f * float64(tid+1) })),
		destest.Do(func(p *des.Proc) { joined = p.Now() }),
	))
	run(t, k)
	if math.Abs(joined-4) > 1e-9 {
		t.Fatalf("region joined at %g, want 4 (slowest thread)", joined)
	}
}

func TestMasterIsThreadZero(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 3)
	var masterTid = -1
	var master *des.Proc
	master = k.Spawn("master", destest.Script(region(tm, each(func(th *Thread) bool {
		if th.P == master {
			masterTid = th.ID
		}
		return true
	}))))
	run(t, k)
	if masterTid != 0 {
		t.Fatalf("master ran as tid %d, want 0", masterTid)
	}
}

func TestSingleThreadTeam(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 1)
	ran := 0
	k.Spawn("master", destest.Script(region(tm, each(func(*Thread) bool { ran++; return true }))))
	run(t, k)
	if ran != 1 {
		t.Fatalf("single-thread region ran %d times", ran)
	}
}

func TestSuccessiveRegions(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 2)
	f := machine.XeonE5().FMax()
	var times []float64
	k.Spawn("master", destest.Script(destest.Repeat(3,
		region(tm, compute(func(int) float64 { return f })),
		destest.Do(func(p *des.Proc) { times = append(times, p.Now()) }),
	)))
	run(t, k)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(times[i]-want) > 1e-9 {
			t.Fatalf("region %d ended at %g, want %g", i, times[i], want)
		}
	}
}

func TestThreadsContendForMemory(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 8)
	var total float64
	k.Spawn("master", destest.Script(
		region(tm, func(int) Body {
			var op node.MemOp
			op.Set(256e6)
			return bodyFunc(func(th *Thread) bool { return th.MemStep(&op) })
		}),
		destest.Do(func(*des.Proc) {
			for _, c := range tm.Node().Ctrs {
				total += c.MemStallTime
			}
		}),
	))
	run(t, k)
	// Eight simultaneous bursts through one controller must stall, in
	// aggregate, well beyond eight uncontended accesses.
	prof := machine.XeonE5()
	uncontended := 8 * (256e6/prof.MemCoreBandwidth + prof.MemFixedLat)
	if total < uncontended*1.5 {
		t.Fatalf("aggregate stall %g shows no contention (uncontended %g)", total, uncontended)
	}
}

func TestTeamAccessors(t *testing.T) {
	k := des.NewKernel()
	tm := team(k, 5)
	if tm.Size() != 5 {
		t.Fatalf("Size = %d", tm.Size())
	}
	if tm.Node() == nil {
		t.Fatal("Node() nil")
	}
}

// TestWorkersPersistAcrossRegions checks the persistent pool: worker
// processes are spawned once on the first parallel region and then halted
// and rewoken, so the kernel's process count stays at master + (c-1)
// workers no matter how many regions run.
func TestWorkersPersistAcrossRegions(t *testing.T) {
	k := des.NewKernel()
	const cores, regions = 8, 50
	tm := team(k, cores)
	f := machine.XeonE5().FMax()
	ran := 0
	k.Spawn("master", destest.Script(destest.Repeat(regions, region(tm, func(int) Body {
		var op node.ComputeOp
		op.Set(f/1e3, 0)
		return bodyFunc(func(th *Thread) bool {
			if !th.ComputeStep(&op) {
				return false
			}
			if th.ID == 0 {
				ran++
			}
			return true
		})
	}))))
	run(t, k)
	if ran != regions {
		t.Fatalf("ran %d regions, want %d", ran, regions)
	}
	if got := k.Procs(); got != cores { // master + (cores-1) workers
		t.Fatalf("kernel spawned %d processes over %d regions, want %d",
			got, regions, cores)
	}
}
