package omp

import (
	"strconv"

	"hybridperf/internal/des"
	"hybridperf/internal/node"
)

// This file is the fork-join region in continuation form: an `omp
// parallel` region is RegionBegin (fork) and RegionJoinArm (the implicit
// barrier), with the persistent worker pool spawned as daemon machines.

// Body is the continuation form of a parallel-region body: Step runs
// one thread's share of the region until it blocks (false) or completes
// (true). A body must self-reset on completion — the same value is
// re-entered at the next region.
type Body interface {
	Step(th *Thread) bool
}

// RegionBegin opens a parallel region: it counts the region, resets the
// join accounting and makes every worker runnable (spawning the persistent
// pool on the first region; mk builds the body machine for worker tid).
// It returns the master's Thread context (tid 0); the master runs the
// body inline as tid 0, driving its own share to completion, and then
// calls RegionJoinArm.
func (t *Team) RegionBegin(p *des.Proc, mk func(tid int) Body) *Thread {
	if m := t.k.Metrics(); m != nil {
		m.Regions++
	}
	t.done = 0
	if t.workers == nil {
		t.spawnWorkers(p.Name(), t.Size(), mk)
	} else {
		for _, wp := range t.workers {
			wp.Wake()
		}
	}
	t.master = Thread{P: p, ID: 0, team: t}
	return &t.master
}

// RegionJoinArm is the region's implicit barrier: true when every worker
// already finished (proceed); false when the master was armed to wait for
// stragglers — the calling Machine must yield and treat its next re-entry
// as the join having completed.
func (t *Team) RegionJoinArm(p *des.Proc) bool {
	if t.done < t.Size()-1 {
		t.join.WaitArm(p)
		return false
	}
	return true
}

// worker drives one persistent worker thread: run the region body,
// count completion (the last worker releases the master), halt until the
// next region wakes it.
type worker struct {
	t    *Team
	th   Thread
	body Body
}

// Step implements des.Machine. It always returns false: a worker is a
// daemon that parks between regions and never completes.
func (w *worker) Step(p *des.Proc) bool {
	w.th.P = p
	if !w.body.Step(&w.th) {
		return false
	}
	w.t.done++
	if w.t.done == w.t.Size()-1 {
		w.t.join.Broadcast() // last worker releases the master
	}
	p.HaltArm()
	return false
}

func (t *Team) spawnWorkers(master string, n int, mk func(tid int) Body) {
	for tid := 1; tid < n; tid++ {
		name := master + ".t" + strconv.Itoa(tid)
		w := &worker{t: t, th: Thread{ID: tid, team: t}, body: mk(tid)}
		t.workers = append(t.workers, t.k.SpawnDaemon(name, w))
	}
}

// ComputeStep drives a resumable compute burst on this thread's core.
func (th *Thread) ComputeStep(op *node.ComputeOp) bool {
	return th.team.node.ComputeStep(op, th.P, th.ID)
}

// MemStep drives a resumable memory access on this thread's core.
func (th *Thread) MemStep(op *node.MemOp) bool {
	return th.team.node.MemStep(op, th.P, th.ID)
}
