package mpi

import (
	"hybridperf/internal/des"
)

// This file holds the runtime's blocking paths as resumable ops: the
// courier is a Machine carried by the pooled message record, and the
// blocking receives and collectives are ops that the calling rank's
// Machine drives across blocks.

// Step implements des.Machine: the courier. The message drives its own
// transfer through the network, then drops the sender's NIC reference,
// recycles itself and delivers.
func (m *message) Step(mp *des.Proc) bool {
	w := m.src.w
	if !w.net.TransferStep(&m.op, mp) {
		return false
	}
	m.src.node.NetRef(-1)
	dst, tag, seq := m.dst, m.tag, m.seq
	w.freeMessage(m)
	dst.deliver(tag, seq)
	return true
}

// waitOp is the shared continuation state of a blocking receive: the
// NIC hold, core-idle transition and wait-time accounting around a
// re-checked predicate (WaitCount's cumulative count or a collective
// round's sequence number).
type waitOp struct {
	pc    int8
	start float64
	ws    float64
}

// WaitCountOp blocks the rank's master process until the cumulative
// number of messages received with Tag reaches Target. Blocked time is
// accounted as network wait on core 0 and keeps the NIC active. Arm Tag
// and Target, then drive with Rank.WaitCountStep; re-arm by assignment for
// the next wait, once the op has completed.
type WaitCountOp struct {
	w      waitOp
	Tag    Tag
	Target int
}

// WaitCountStep drives an armed WaitCountOp: false means the wait blocked
// (yield and re-enter), true means the target count has been received.
func (r *Rank) WaitCountStep(op *WaitCountOp, p *des.Proc) bool {
	switch op.w.pc {
	case 0:
		if r.received[op.Tag] >= op.Target {
			return true
		}
		op.w.start = p.Now()
		r.node.NetRef(1)
		op.w.ws = r.node.NetWaitBegin(0)
		op.w.pc = 1
		fallthrough
	case 1:
		if r.received[op.Tag] < op.Target {
			r.cond[op.Tag].WaitArm(p)
			return false
		}
		r.node.NetWaitEnd(0, op.w.ws)
		r.node.NetRef(-1)
		r.waitTime += p.Now() - op.w.start
		op.w.pc = 0
		return true
	}
	panic("mpi: bad WaitCountOp state")
}

// waitSeqOp is one collective round's exact-match receive: it waits until
// the message with the given sequence number has arrived on the tag, with
// the same NIC/idle/wait accounting as WaitCountOp.
type waitSeqOp struct {
	w   waitOp
	tag Tag
	seq int
}

func (r *Rank) waitSeqStep(op *waitSeqOp, p *des.Proc) bool {
	switch op.w.pc {
	case 0:
		if r.seqGot(op.tag, op.seq) {
			return true
		}
		op.w.start = p.Now()
		r.node.NetRef(1)
		op.w.ws = r.node.NetWaitBegin(0)
		op.w.pc = 1
		fallthrough
	case 1:
		if !r.seqGot(op.tag, op.seq) {
			r.cond[op.tag].WaitArm(p)
			return false
		}
		r.node.NetWaitEnd(0, op.w.ws)
		r.node.NetRef(-1)
		r.waitTime += p.Now() - op.w.start
		op.w.pc = 0
		return true
	}
	panic("mpi: bad waitSeqOp state")
}

// AllreduceOp is a ring-hypercube allreduce of Bytes per message:
// ceil(log2 n) rounds in which every rank sends to (id+2^k) mod n and
// waits for one message — a permutation each round, so it cannot deadlock
// for any world size.
//
// Each round is matched exactly by a sequence number (operation x round):
// the round-k wait is satisfied only by the round-k message from
// (id-2^k) mod n, which that rank sends only after completing its own
// round k-1 — the dissemination-barrier dependency chain that makes the
// operation a true global synchronisation for any world size. Every rank
// must execute the same collective sequence (SPMD), as in MPI.
//
// Arm Bytes, then drive with Rank.AllreduceStep. The op self-resets on
// completion, so one value serves every iteration of a program loop. An
// AllreduceOp with Bytes 8 is the barrier, which is how MPI_Barrier costs
// out on an Ethernet cluster (latency-bound rounds).
type AllreduceOp struct {
	pc     int8
	Bytes  float64
	op     int
	round  int
	rounds int
	wait   waitSeqOp
}

// AllreduceStep drives an armed AllreduceOp: false means a round's wait
// blocked (yield and re-enter), true means the collective completed.
func (r *Rank) AllreduceStep(aop *AllreduceOp, p *des.Proc) bool {
	n := r.w.Size()
	if aop.pc == 0 {
		if n == 1 {
			return true
		}
		aop.rounds = ReduceRounds(n)
		aop.op = r.reduceOps
		r.reduceOps++
		aop.round = 0
		aop.pc = 1
	}
	for aop.round < aop.rounds {
		if aop.pc == 1 {
			partner := (r.id + (1 << aop.round)) % n
			seq := aop.op*aop.rounds + aop.round
			r.isend(partner, aop.Bytes, TagReduce, seq)
			aop.wait = waitSeqOp{tag: TagReduce, seq: seq}
			aop.pc = 2
		}
		if !r.waitSeqStep(&aop.wait, p) {
			return false
		}
		aop.round++
		aop.pc = 1
	}
	aop.pc = 0
	return true
}

// AlltoallOp is a personalised all-to-all exchange: every rank sends Bytes
// to each of the other n-1 ranks and waits for the n-1 messages addressed
// to it, using a rotation schedule (step k sends to (id+k) mod n, a
// permutation per step). Rank id's step-k receipt comes from (id-k) mod n
// and is matched exactly by an (operation, step) sequence number. Like
// AllreduceOp it is a synchronising collective; every rank must run it the
// same number of times (SPMD). Arm Bytes, then drive with
// Rank.AlltoallStep. Self-resetting like AllreduceOp.
type AlltoallOp struct {
	pc    int8
	Bytes float64
	base  int
	step  int
	wait  waitSeqOp
}

// AlltoallStep drives an armed AlltoallOp: all n-1 sends are posted
// eagerly on first entry, so the exchange pipelines through the switch,
// then the step waits are drained in order.
func (r *Rank) AlltoallStep(aop *AlltoallOp, p *des.Proc) bool {
	n := r.w.Size()
	if aop.pc == 0 {
		if n == 1 {
			return true
		}
		aop.base = r.a2aOps * (n - 1)
		r.a2aOps++
		for step := 1; step < n; step++ {
			r.isend((r.id+step)%n, aop.Bytes, TagAll2All, aop.base+step-1)
		}
		aop.step = 1
		aop.pc = 1
	}
	for aop.step < n {
		if aop.pc == 1 {
			aop.wait = waitSeqOp{tag: TagAll2All, seq: aop.base + aop.step - 1}
			aop.pc = 2
		}
		if !r.waitSeqStep(&aop.wait, p) {
			return false
		}
		aop.step++
		aop.pc = 1
	}
	aop.pc = 0
	return true
}
