package simnet

import (
	"fmt"

	"hybridperf/internal/des"
)

// This file holds the transfer of both network models as a resumable op
// that a des.Machine drives across blocks.

// TransferOp is the continuation state of one in-flight transfer; once it
// completes, wait and service hold its queueing delay and service time.
type TransferOp struct {
	pc       int8
	src, dst int
	bytes    float64
	service  float64
	enq      float64
	start    float64
	wait     float64
}

// Set arms the op for one transfer from node src to node dst.
func (op *TransferOp) Set(src, dst int, bytes float64) {
	op.src, op.dst, op.bytes = src, dst, bytes
}

// TransferStep implements Network: every message serialises at the one
// server, acquired, held for the service time and released.
func (s *Switch) TransferStep(op *TransferOp, p *des.Proc) bool {
	switch op.pc {
	case 0:
		op.service = s.prof.MsgServiceTime(op.bytes)
		op.enq = p.Now()
		op.pc = 1
		if !s.res.AcquireArm(p) {
			return false
		}
		fallthrough
	case 1:
		op.wait = s.res.AcquireDone(op.enq)
		op.pc = 2
		if !p.AdvanceArm(op.service) {
			return false
		}
		fallthrough
	case 2:
		s.res.ServeDone(op.service)
		op.pc = 0
		return true
	}
	panic("simnet: bad TransferOp state")
}

// TransferStep implements Network: egress then ingress port acquisition,
// cut-through service, reverse release.
func (x *Crossbar) TransferStep(op *TransferOp, p *des.Proc) bool {
	switch op.pc {
	case 0:
		if op.src < 0 || op.src >= len(x.egress) || op.dst < 0 || op.dst >= len(x.ingress) {
			panic(fmt.Sprintf("simnet: crossbar transfer %d->%d outside %d ports", op.src, op.dst, len(x.egress)))
		}
		op.service = x.prof.MsgServiceTime(op.bytes)
		op.start = p.Now()
		op.enq = p.Now()
		op.pc = 1
		if !x.egress[op.src].AcquireArm(p) {
			return false
		}
		fallthrough
	case 1:
		x.egress[op.src].AcquireDone(op.enq)
		op.enq = p.Now()
		op.pc = 2
		if !x.ingress[op.dst].AcquireArm(p) {
			return false
		}
		fallthrough
	case 2:
		x.ingress[op.dst].AcquireDone(op.enq)
		op.wait = p.Now() - op.start
		op.pc = 3
		if !p.AdvanceArm(op.service) {
			return false
		}
		fallthrough
	case 3:
		x.ingress[op.dst].Release()
		x.egress[op.src].Release()
		x.served++
		x.totalWait += op.wait
		x.totalSvc += op.service
		op.pc = 0
		return true
	}
	panic("simnet: bad TransferOp state")
}
