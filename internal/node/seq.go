package node

import (
	"hybridperf/internal/des"
	"hybridperf/internal/trace"
)

// This file holds the node's blocking operations — a compute burst and a
// memory burst — as resumable ops that a des.Machine drives across
// blocks.

// ComputeOp is one compute burst on a core: the core runs in the active
// state for the ISA-dependent cycle count, inflated by the program/ISA
// pipeline-stall fraction bFrac and (if a jitter stream is attached) by
// OS noise. Work and non-memory stall cycles are counted separately, as a
// hardware counter would report them. Set arms one burst; Node.ComputeStep
// drives it to completion, after which the op is ready for the next Set.
type ComputeOp struct {
	pc    int8
	units float64
	bFrac float64
	workT float64
	bT    float64
	instr float64
	start float64
}

// Set arms the op for one compute burst.
func (op *ComputeOp) Set(units, bFrac float64) { op.units, op.bFrac = units, bFrac }

// ComputeStep drives an armed ComputeOp: false means the burst blocked
// (the calling Machine must yield and re-enter), true means it completed.
func (n *Node) ComputeStep(op *ComputeOp, p *des.Proc, core int) bool {
	switch op.pc {
	case 0:
		if op.units <= 0 {
			return true
		}
		j := 1.0
		if n.jitter != nil {
			j = n.jitter.Jitter(n.prof.OSJitter)
		}
		op.workT = op.units * n.prof.CyclesPerWork / n.freq * j
		op.bT = op.workT * op.bFrac * n.prof.BaseStallFrac
		op.instr = op.units * j
		op.start = n.k.Now()
		n.setState(core, Act)
		op.pc = 1
		if !p.AdvanceArm(op.workT + op.bT) {
			return false
		}
		fallthrough
	case 1:
		c := &n.Ctrs[core]
		c.WorkTime += op.workT
		c.BStallTime += op.bT
		c.Instructions += op.instr
		n.setState(core, Idle)
		if n.rec != nil && core == 0 {
			n.rec.Add(n.ID, trace.Compute, op.start, n.k.Now())
		}
		op.pc = 0
		return true
	}
	panic("node: bad ComputeOp state")
}

// MemOp is one memory burst: the core stalls on the given DRAM traffic
// (bytes, already scaled by the profile's MemTrafficFactor). The burst has
// a private portion — the core alone cannot saturate the controller — and
// a shared portion serialised at the node's memory controller, where
// queueing against the other cores produces the contention-driven stall
// growth the model's ms(c,f) input captures. Set arms one burst;
// Node.MemStep drives it across the private advance, the
// memory-controller queue and the shared drain.
type MemOp struct {
	pc      int8
	bytes   float64
	start   float64
	enq     float64
	private float64
	shared  float64
	wait    float64
}

// Set arms the op for one memory burst.
func (op *MemOp) Set(bytes float64) { op.bytes = bytes }

// MemStep drives an armed MemOp: false means the burst blocked (yield and
// re-enter), true means it completed.
func (n *Node) MemStep(op *MemOp, p *des.Proc, core int) bool {
	switch op.pc {
	case 0:
		if op.bytes <= 0 {
			return true
		}
		op.start = n.k.Now()
		n.setState(core, Stall)
		op.private = op.bytes*(1/n.prof.MemCoreBandwidth-1/n.prof.MemBandwidth) + n.prof.MemFixedLat
		op.pc = 1
		if op.private > 0 && !p.AdvanceArm(op.private) {
			return false
		}
		fallthrough
	case 1:
		op.shared = op.bytes / n.prof.MemBandwidth
		op.enq = n.k.Now()
		op.pc = 2
		if !n.memctl.AcquireArm(p) {
			return false
		}
		fallthrough
	case 2:
		op.wait = n.memctl.AcquireDone(op.enq)
		op.pc = 3
		if !p.AdvanceArm(op.shared) {
			return false
		}
		fallthrough
	case 3:
		n.memctl.ServeDone(op.shared)
		n.Ctrs[core].MemStallTime += op.private + op.wait + op.shared
		n.setState(core, Idle)
		if n.rec != nil && core == 0 {
			n.rec.Add(n.ID, trace.MemStall, op.start, n.k.Now())
		}
		op.pc = 0
		return true
	}
	panic("node: bad MemOp state")
}
