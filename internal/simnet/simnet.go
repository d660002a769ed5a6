// Package simnet simulates the cluster interconnect. Two models are
// provided:
//
//   - Switch: a single FCFS server shared by all traffic — the star-
//     topology/shared-medium M/G/1 abstraction the paper's Eq. (5)
//     assumes, and the default for the paper's validation clusters.
//   - Crossbar: per-node ingress and egress ports with a non-blocking
//     backplane — transfers between disjoint port pairs proceed in
//     parallel, contention arises from incast (shared destination) and
//     send serialisation (shared source), as in a modern Ethernet switch.
//
// In both, the per-message service time is a fixed protocol overhead plus
// wire time at a size-dependent effective bandwidth (the saturating curve
// NetPIPE measures in Figure 3).
package simnet

import (
	"fmt"

	"hybridperf/internal/des"
	"hybridperf/internal/machine"
)

// Network is the interconnect abstraction the MPI runtime sends through.
type Network interface {
	// TransferStep moves one message on behalf of process p, blocking p
	// for queueing plus service; op must have been armed with
	// TransferOp.Set. False means the transfer blocked (the calling
	// Machine must yield and re-enter), true means it completed, with the
	// op ready for the next Set.
	TransferStep(op *TransferOp, p *des.Proc) bool
	// ServiceTime exposes the uncontended service time for a message size.
	ServiceTime(bytes float64) float64
	// Stats aggregates the network's queueing statistics.
	Stats() des.ResourceStats
}

// New creates the interconnect matching the profile's topology for a
// cluster of n nodes.
func New(k *des.Kernel, prof *machine.Profile, n int) Network {
	if prof.Topology == machine.TopologyCrossbar {
		return NewCrossbar(k, prof, n)
	}
	return NewSwitch(k, prof)
}

// Switch is the shared-medium cluster switch (single FCFS server).
type Switch struct {
	prof *machine.Profile
	res  *des.Resource
}

// NewSwitch creates the shared switch for a cluster described by prof.
func NewSwitch(k *des.Kernel, prof *machine.Profile) *Switch {
	return &Switch{prof: prof, res: des.NewResource(k, "switch")}
}

// ServiceTime implements Network.
func (s *Switch) ServiceTime(bytes float64) float64 { return s.prof.MsgServiceTime(bytes) }

// Stats implements Network.
func (s *Switch) Stats() des.ResourceStats { return s.res.Stats() }

// Crossbar is a non-blocking switch with per-node ingress/egress ports.
// A transfer holds the source's egress port and the destination's ingress
// port for its cut-through service time (circuit model): disjoint pairs
// run concurrently, incast serialises at the destination and a sender's
// own messages serialise at its egress. Ports are always acquired egress
// first, so a port holder never waits on anything held by a waiter and
// the acquisition order is deadlock-free.
type Crossbar struct {
	prof    *machine.Profile
	egress  []*des.Resource
	ingress []*des.Resource

	served    int64
	totalWait float64
	totalSvc  float64
}

// NewCrossbar creates the crossbar interconnect for n nodes.
func NewCrossbar(k *des.Kernel, prof *machine.Profile, n int) *Crossbar {
	x := &Crossbar{prof: prof}
	for i := 0; i < n; i++ {
		x.egress = append(x.egress, des.NewResource(k, fmt.Sprintf("egress[%d]", i)))
		x.ingress = append(x.ingress, des.NewResource(k, fmt.Sprintf("ingress[%d]", i)))
	}
	return x
}

// ServiceTime implements Network.
func (x *Crossbar) ServiceTime(bytes float64) float64 { return x.prof.MsgServiceTime(bytes) }

// Stats implements Network: served/wait/service aggregate over all
// transfers; Utilization reports the mean ingress-port utilisation (the
// contention-relevant stage).
func (x *Crossbar) Stats() des.ResourceStats {
	s := des.ResourceStats{
		Served:       x.served,
		TotalWait:    x.totalWait,
		TotalService: x.totalSvc,
	}
	if x.served > 0 {
		s.MeanWait = x.totalWait / float64(x.served)
		s.MeanService = x.totalSvc / float64(x.served)
	}
	var u float64
	for _, r := range x.ingress {
		u += r.Stats().Utilization
	}
	if len(x.ingress) > 0 {
		s.Utilization = u / float64(len(x.ingress))
	}
	return s
}
