// Package mpi implements a message-passing runtime in simulated time: one
// rank per node, eager non-blocking sends routed through the shared switch
// (internal/simnet), cumulative-count receives, a recursive-doubling
// allreduce (an 8-byte one is the barrier) and an all-to-all exchange. It
// is the substrate standing in for the MPI-over-TCP stack of the paper's
// clusters. The blocking operations are resumable ops (seq.go) that the
// calling rank's des.Machine drives across blocks.
//
// The runtime doubles as the paper's mpiP profiler: every rank's message
// count and volume are accounted, so the workload characterisation can
// extract the communication parameters η (messages per process) and ν
// (bytes per message) without instrumenting programs.
package mpi

import (
	"fmt"
	"math"

	"hybridperf/internal/des"
	"hybridperf/internal/node"
	"hybridperf/internal/simnet"
)

// Tag separates message classes so that cumulative-count matching of halo
// traffic can never be confused by collective traffic racing ahead.
type Tag int

const (
	TagHalo    Tag = iota // point-to-point halo exchange
	TagReduce             // allreduce / barrier rounds
	TagAll2All            // all-to-all exchange steps
	numTags
)

// World is an MPI communicator spanning one rank per node.
type World struct {
	k       *des.Kernel
	net     simnet.Network
	ranks   []*Rank
	msgPool []*message // free list of in-flight message records
}

// Rank is one logical MPI process, pinned to its node's core 0 (the master
// thread performs all communication, the common hybrid-program structure).
type Rank struct {
	w    *World
	id   int
	node *node.Node

	received  [numTags]int
	cond      [numTags]des.Cond
	reduceOps int              // completed allreduce operations (barriers included)
	a2aOps    int              // completed all-to-all operations
	seqRecv   [numTags][]int32 // per-round receipt counts, indexed by sequence

	// mpiP-style accounting.
	sentMsgs  int
	sentBytes float64
	waitTime  float64
}

// NewWorld creates a communicator over the given nodes (rank i ↔ nodes[i]).
func NewWorld(k *des.Kernel, net simnet.Network, nodes []*node.Node) *World {
	w := &World{k: k, net: net}
	for i, nd := range nodes {
		w.ranks = append(w.ranks, &Rank{w: w, id: i, node: nd})
	}
	return w
}

// seqGot reports whether the collective round seq has been received.
func (r *Rank) seqGot(tag Tag, seq int) bool {
	s := r.seqRecv[tag]
	return seq < len(s) && s[seq] > 0
}

// seqMark records receipt of collective round seq. Sequence numbers grow
// monotonically with completed operations, so a flat slice replaces the
// per-message map churn of a map[int]int at a few bytes per round.
func (r *Rank) seqMark(tag Tag, seq int) {
	s := r.seqRecv[tag]
	for len(s) <= seq {
		s = append(s, 0)
	}
	s[seq]++
	r.seqRecv[tag] = s
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// ID returns the rank's index in the world.
func (r *Rank) ID() int { return r.id }

// Node returns the node this rank runs on.
func (r *Rank) Node() *node.Node { return r.node }

// World returns the communicator the rank belongs to.
func (r *Rank) World() *World { return r.w }

// Isend posts a non-blocking send of `bytes` to rank `to`. The message
// queues at the switch (FCFS single server) and is delivered to the
// destination's cumulative receive count for the tag, carried by a pooled
// courier process. The sender's NIC is active until the transfer
// completes; the sending process does not block.
func (r *Rank) Isend(to int, bytes float64, tag Tag) { r.isend(to, bytes, tag, -1) }

// isend is Isend with an optional collective-round sequence number
// (seq >= 0) that the destination can match on exactly.
func (r *Rank) isend(to int, bytes float64, tag Tag, seq int) {
	if to < 0 || to >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (world size %d)", to, r.w.Size()))
	}
	r.sentMsgs++
	r.sentBytes += bytes
	if m := r.w.k.Metrics(); m != nil {
		m.ObserveMessage(uint64(bytes))
	}
	if to == r.id {
		// Self-delivery is immediate: shared memory, no switch transit.
		r.deliver(tag, seq)
		return
	}
	r.node.NetRef(1)
	m := r.w.newMessage()
	m.src, m.dst, m.bytes, m.tag, m.seq = r, r.w.ranks[to], bytes, tag, seq
	m.op.Set(r.id, to, bytes)
	r.w.k.Go("mpi.msg", m)
}

// message is the in-flight state of one eager send, drawn from the world's
// free list so steady-state traffic allocates nothing. The record doubles
// as the courier Machine, carrying its transfer continuation in op (see
// seq.go).
type message struct {
	src, dst *Rank
	bytes    float64
	tag      Tag
	seq      int
	op       simnet.TransferOp
}

// newMessage takes a message from the free list (or allocates the first
// few). Simulated processes run one at a time, so no locking is needed.
func (w *World) newMessage() *message {
	if n := len(w.msgPool); n > 0 {
		m := w.msgPool[n-1]
		w.msgPool = w.msgPool[:n-1]
		return m
	}
	return &message{}
}

// freeMessage returns a delivered message to the free list.
func (w *World) freeMessage(m *message) {
	*m = message{}
	w.msgPool = append(w.msgPool, m)
}

// deliver records a message arrival and wakes waiters.
func (r *Rank) deliver(tag Tag, seq int) {
	r.received[tag]++
	if seq >= 0 {
		r.seqMark(tag, seq)
	}
	r.cond[tag].Broadcast()
}

// Received reports the cumulative receive count for a tag.
func (r *Rank) Received(tag Tag) int { return r.received[tag] }

// ReduceRounds returns the number of communication rounds (and thus
// messages per rank) of an allreduce over n ranks: ceil(log2 n).
func ReduceRounds(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Profile is the mpiP-style communication summary of a run.
type Profile struct {
	Ranks        int
	TotalMsgs    int     // messages sent, summed over ranks
	TotalBytes   float64 // bytes sent, summed over ranks
	MsgsPerRank  float64 // η: mean messages per process
	BytesPerMsg  float64 // ν: mean message volume [B]
	MeanWaitTime float64 // mean per-rank blocked-in-MPI time [s]
	SwitchStats  des.ResourceStats
}

// Profile extracts the communication profile accumulated so far.
func (w *World) Profile() Profile {
	p := Profile{Ranks: w.Size(), SwitchStats: w.net.Stats()}
	var wait float64
	for _, r := range w.ranks {
		p.TotalMsgs += r.sentMsgs
		p.TotalBytes += r.sentBytes
		wait += r.waitTime
	}
	if p.Ranks > 0 {
		p.MsgsPerRank = float64(p.TotalMsgs) / float64(p.Ranks)
		p.MeanWaitTime = wait / float64(p.Ranks)
	}
	if p.TotalMsgs > 0 {
		p.BytesPerMsg = p.TotalBytes / float64(p.TotalMsgs)
	}
	return p
}
