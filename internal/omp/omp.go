// Package omp implements the shared-memory half of the hybrid programming
// model in simulated time: fork-join parallel regions whose threads are
// pinned one-per-core on a simulated node. Threads interleave compute
// bursts with memory accesses; contention for the node's UMA memory
// controller is what turns parallelism into the stall cycles the paper's
// model measures as ms.
package omp

import (
	"strconv"

	"hybridperf/internal/des"
	"hybridperf/internal/node"
)

// Team executes parallel regions on a node, one thread per active core.
// The master thread (tid 0) runs on the calling process, mirroring the
// OpenMP execution model where the MPI process's main thread becomes
// thread 0 of each region.
//
// Worker threads form a persistent pool: they are spawned once, on the
// team's first parallel region, and parked with Halt between regions — a
// run with thousands of regions creates exactly Size()-1 worker
// goroutines, as a real OpenMP runtime would.
type Team struct {
	k    *des.Kernel
	node *node.Node

	workers []*des.Proc // parked pool, index i drives thread id i+1
	body    func(th *Thread)
	done    int // workers finished with the current region
	join    des.Cond
	master  Thread // reusable master-thread context (tid 0)
}

// NewTeam creates a team covering all active cores of nd.
func NewTeam(k *des.Kernel, nd *node.Node) *Team {
	return &Team{k: k, node: nd}
}

// Node returns the node the team runs on.
func (t *Team) Node() *node.Node { return t.node }

// Size returns the team's thread count (the node's active cores).
func (t *Team) Size() int { return t.node.Cores() }

// Thread is the per-thread execution context inside a parallel region.
type Thread struct {
	P    *des.Proc // the simulated process driving this thread
	ID   int       // thread id == core id
	team *Team
}

// Compute executes work units on this thread's core (active power state,
// pipeline stalls and OS jitter applied by the node).
func (th *Thread) Compute(units, bFrac float64) {
	th.team.node.Compute(th.P, th.ID, units, bFrac)
}

// MemAccess stalls this thread on a DRAM burst of the given traffic.
func (th *Thread) MemAccess(bytes float64) {
	th.team.node.MemAccess(th.P, th.ID, bytes)
}

// Parallel runs body once per thread (an `omp parallel` region) and blocks
// the master process until every thread has finished — the region's
// implicit barrier. The master runs body inline as tid 0; worker threads
// are pooled daemon processes woken per region (spawned on the first).
func (t *Team) Parallel(p *des.Proc, body func(th *Thread)) {
	if m := t.k.Metrics(); m != nil {
		m.Regions++
	}
	n := t.Size()
	t.body = body
	t.done = 0
	if t.workers == nil {
		t.spawnWorkers(p.Name(), n)
	} else {
		for _, wp := range t.workers {
			wp.Wake()
		}
	}
	t.master = Thread{P: p, ID: 0, team: t}
	body(&t.master)
	if t.done < n-1 {
		t.join.Wait(p)
	}
	t.body = nil
}

// spawnWorkers creates the persistent pool on the first region. Each
// worker runs the current region body, signals completion, and parks until
// the next region wakes it; abort (Kernel.Shutdown, run failure) unwinds
// parked workers through the kernel's abort signal.
func (t *Team) spawnWorkers(master string, n int) {
	for tid := 1; tid < n; tid++ {
		name := master + ".t" + strconv.Itoa(tid)
		th := Thread{ID: tid, team: t}
		t.workers = append(t.workers, t.k.SpawnDaemon(name, func(wp *des.Proc) {
			th.P = wp
			for {
				t.body(&th)
				t.done++
				if t.done == t.Size()-1 {
					t.join.Broadcast() // last worker releases the master
				}
				wp.Halt()
			}
		}))
	}
}
