// Package omp implements the shared-memory half of the hybrid programming
// model in simulated time: fork-join parallel regions whose threads are
// pinned one-per-core on a simulated node. Threads interleave compute
// bursts with memory accesses; contention for the node's UMA memory
// controller is what turns parallelism into the stall cycles the paper's
// model measures as ms.
package omp

import (
	"hybridperf/internal/des"
	"hybridperf/internal/node"
)

// Team executes parallel regions on a node, one thread per active core.
// The master thread (tid 0) runs on the calling process, mirroring the
// OpenMP execution model where the MPI process's main thread becomes
// thread 0 of each region.
//
// Worker threads form a persistent pool: they are spawned once, on the
// team's first parallel region, and halted between regions — a run with
// thousands of regions creates exactly Size()-1 worker processes, as a
// real OpenMP runtime would.
type Team struct {
	k    *des.Kernel
	node *node.Node

	workers []*des.Proc // parked pool, index i drives thread id i+1
	done    int         // workers finished with the current region
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
