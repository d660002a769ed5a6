// Package machine defines the hardware profiles the simulator and the
// analytical model share: node/core counts, DVFS levels, memory and network
// capabilities, and the power curves that drive energy accounting.
//
// Two built-in profiles mirror Table 3 of the paper: an Intel Xeon E5-2603
// cluster (8 nodes x 8 cores, 1.2-1.8 GHz, 1 Gbps Ethernet) and an ARM
// Cortex-A9 cluster (8 nodes x 4 cores, 0.2-1.4 GHz, 100 Mbps Ethernet).
// Power-curve constants are calibrated to the dynamic ranges the paper
// reports (tens of watts per Xeon node, single-digit watts per ARM node).
package machine

import (
	"fmt"
	"math"
	"sort"
)

// Config identifies one execution configuration (n, c, f): number of nodes,
// active cores per node, and core clock frequency in Hz.
type Config struct {
	Nodes int
	Cores int
	Freq  float64 // Hz
}

// GHz returns the configuration frequency in gigahertz.
func (c Config) GHz() float64 { return c.Freq / 1e9 }

// String renders the configuration as the paper does: (n,c,f[GHz]).
func (c Config) String() string {
	return fmt.Sprintf("(%d,%d,%.1f)", c.Nodes, c.Cores, c.GHz())
}

// CF identifies a (cores, frequency) baseline measurement point.
type CF struct {
	Cores int
	Freq  float64 // Hz
}

// String renders the point as (c, f[GHz]).
func (p CF) String() string { return fmt.Sprintf("(%d,%.1fGHz)", p.Cores, p.Freq/1e9) }

// PowerCurve models per-core active power as a function of frequency:
// P(f) = Static + Dyn * (f/fRef)^Exp, the usual static+dynamic CMOS split
// with voltage folded into the exponent.
type PowerCurve struct {
	Static float64 // W, frequency-independent share
	Dyn    float64 // W at the reference frequency
	FRef   float64 // Hz
	Exp    float64 // typically 1.8-3.0
}

// At returns the curve's power at frequency f [Hz].
func (pc PowerCurve) At(f float64) float64 {
	if pc.FRef <= 0 {
		return pc.Static
	}
	return pc.Static + pc.Dyn*math.Pow(f/pc.FRef, pc.Exp)
}

// Topology selects the interconnect contention model.
type Topology string

const (
	// TopologyShared is the paper's star-topology abstraction: one shared
	// FCFS server for all traffic (the M/G/1 of Eq. 5). The default.
	TopologyShared Topology = "shared"
	// TopologyCrossbar is a non-blocking switch with per-node ports:
	// contention only at shared sources/destinations.
	TopologyCrossbar Topology = "crossbar"
)

// Profile describes a homogeneous cluster: identical nodes behind an
// Ethernet switch (shared-medium star topology by default, as in the
// paper's validation setup).
type Profile struct {
	Name string
	ISA  string

	// Topology selects the interconnect model; empty means TopologyShared.
	Topology Topology

	// Topology and configuration space.
	MaxNodes     int       // nodes physically present for "measurement"
	CoresPerNode int       // cmax
	Frequencies  []float64 // DVFS levels [Hz], ascending

	// Execution character.
	CyclesPerWork float64 // core cycles consumed per abstract work unit
	BaseStallFrac float64 // ISA factor for non-memory (pipeline) stalls

	// Memory hierarchy. A core's memory burst has a private portion
	// (limited instruction-level parallelism: the core alone cannot
	// saturate the controller) and a shared portion serialised at the
	// UMA memory controller; MemTrafficFactor scales a program's
	// DRAM traffic for the cache capacity of this node (the Xeon's
	// 20 MB L3 absorbs traffic the ARM's 1 MB L2 cannot).
	MemBurstBytes    float64 // preferred memory-controller request size [B]
	MemBandwidth     float64 // node memory-controller throughput [B/s]
	MemCoreBandwidth float64 // single-core achievable throughput [B/s]
	MemTrafficFactor float64 // DRAM traffic multiplier vs. cache-rich baseline
	MemFixedLat      float64 // per-burst controller latency [s]

	// Network (per Table 3 I/O bandwidth).
	LinkBandwidth  float64 // raw link rate [bit/s]
	NetEfficiency  float64 // achievable fraction of raw rate (Fig 3: ~0.9)
	NetHalfSatB    float64 // message size at which half the peak is reached [B]
	NetMsgOverhead float64 // fixed per-message software/switch overhead [s]

	// Power model.
	PSysIdle   float64    // whole-node idle power [W]
	PCoreAct   PowerCurve // per-core power while executing work cycles [W]
	StallPower float64    // stall power as a fraction of active power
	PMem       float64    // memory subsystem power while servicing [W]
	PNet       float64    // NIC power while transmitting/receiving [W]

	// Measurement quality (paper Sec. IV.C: power characterisation varies
	// by up to 2 W on Xeon, 0.4 W on ARM).
	MeterNoiseW float64 // stddev of power measurement noise [W]
	OSJitter    float64 // relative stddev of compute-burst perturbation
}

// FMin returns the lowest DVFS level.
func (p *Profile) FMin() float64 { return p.Frequencies[0] }

// FMax returns the highest DVFS level.
func (p *Profile) FMax() float64 { return p.Frequencies[len(p.Frequencies)-1] }

// HasFrequency reports whether f is one of the profile's DVFS levels.
func (p *Profile) HasFrequency(f float64) bool {
	for _, g := range p.Frequencies {
		if g == f {
			return true
		}
	}
	return false
}

// PCoreStall returns per-core power during memory stalls at frequency f.
func (p *Profile) PCoreStall(f float64) float64 {
	return p.PCoreAct.At(f) * p.StallPower
}

// EffectiveNetBandwidth returns the achievable network throughput [B/s] for
// messages of the given size, following the saturating curve NetPIPE
// measures in Figure 3: small messages are overhead-dominated, large ones
// approach NetEfficiency x LinkBandwidth.
func (p *Profile) EffectiveNetBandwidth(msgBytes float64) float64 {
	peak := p.NetEfficiency * p.LinkBandwidth / 8 // B/s
	if msgBytes <= 0 {
		return peak
	}
	return peak * msgBytes / (msgBytes + p.NetHalfSatB)
}

// MsgServiceTime returns the switch service time for one message of the
// given size: fixed software overhead plus wire time at the effective rate.
func (p *Profile) MsgServiceTime(msgBytes float64) float64 {
	return p.NetMsgOverhead + msgBytes/p.EffectiveNetBandwidth(msgBytes)
}

// Validate checks profile consistency; programs should call it once when
// accepting a user-supplied custom profile.
func (p *Profile) Validate() error {
	switch {
	case p.MaxNodes < 1:
		return fmt.Errorf("machine %s: MaxNodes must be >= 1", p.Name)
	case p.CoresPerNode < 1:
		return fmt.Errorf("machine %s: CoresPerNode must be >= 1", p.Name)
	case len(p.Frequencies) == 0:
		return fmt.Errorf("machine %s: no DVFS levels", p.Name)
	case !sort.Float64sAreSorted(p.Frequencies):
		return fmt.Errorf("machine %s: frequencies must be ascending", p.Name)
	case p.Frequencies[0] <= 0:
		return fmt.Errorf("machine %s: frequencies must be positive", p.Name)
	case p.CyclesPerWork <= 0:
		return fmt.Errorf("machine %s: CyclesPerWork must be positive", p.Name)
	case p.MemBandwidth <= 0:
		return fmt.Errorf("machine %s: MemBandwidth must be positive", p.Name)
	case p.MemCoreBandwidth <= 0 || p.MemCoreBandwidth > p.MemBandwidth:
		return fmt.Errorf("machine %s: MemCoreBandwidth must be in (0, MemBandwidth]", p.Name)
	case p.MemTrafficFactor <= 0:
		return fmt.Errorf("machine %s: MemTrafficFactor must be positive", p.Name)
	case p.MemBurstBytes <= 0:
		return fmt.Errorf("machine %s: MemBurstBytes must be positive", p.Name)
	case p.LinkBandwidth <= 0:
		return fmt.Errorf("machine %s: LinkBandwidth must be positive", p.Name)
	case p.NetEfficiency <= 0 || p.NetEfficiency > 1:
		return fmt.Errorf("machine %s: NetEfficiency must be in (0,1]", p.Name)
	case p.Topology != "" && p.Topology != TopologyShared && p.Topology != TopologyCrossbar:
		return fmt.Errorf("machine %s: unknown topology %q", p.Name, p.Topology)
	case p.PSysIdle < 0 || p.PMem < 0 || p.PNet < 0:
		return fmt.Errorf("machine %s: negative power parameter", p.Name)
	}
	return nil
}

// ValidateConfig checks that cfg is executable on this profile for
// measurement purposes (n within the physical cluster). Model predictions
// may extrapolate beyond MaxNodes; use ValidateModelConfig for those.
func (p *Profile) ValidateConfig(cfg Config) error {
	if err := p.ValidateModelConfig(cfg); err != nil {
		return err
	}
	if cfg.Nodes > p.MaxNodes {
		return fmt.Errorf("machine %s: %d nodes exceeds physical cluster of %d", p.Name, cfg.Nodes, p.MaxNodes)
	}
	return nil
}

// ValidateModelConfig checks structural validity of cfg (cores and
// frequency must exist on the node) without bounding the node count, since
// the analytical model may explore clusters larger than the testbed.
func (p *Profile) ValidateModelConfig(cfg Config) error {
	switch {
	case cfg.Nodes < 1:
		return fmt.Errorf("machine %s: config %v: nodes must be >= 1", p.Name, cfg)
	case cfg.Cores < 1 || cfg.Cores > p.CoresPerNode:
		return fmt.Errorf("machine %s: config %v: cores must be in [1,%d]", p.Name, cfg, p.CoresPerNode)
	case !p.HasFrequency(cfg.Freq):
		return fmt.Errorf("machine %s: config %v: frequency %.2f GHz is not a DVFS level", p.Name, cfg, cfg.GHz())
	}
	return nil
}

// XeonE5 returns the Intel Xeon E5-2603 cluster profile from Table 3:
// 8 nodes, 8 cores/node (dual socket), 1.2/1.5/1.8 GHz, 8 GB DDR3,
// 1 Gbps Ethernet.
func XeonE5() *Profile {
	return &Profile{
		Name:         "xeon-e5-2603",
		ISA:          "x86_64",
		MaxNodes:     8,
		CoresPerNode: 8,
		Frequencies:  []float64{1.2e9, 1.5e9, 1.8e9},

		CyclesPerWork:    1.0,
		BaseStallFrac:    0.6, // deep OOO pipeline hides most hazards
		MemBurstBytes:    4 << 20,
		MemBandwidth:     12.8e9,
		MemCoreBandwidth: 8.0e9,
		MemTrafficFactor: 1.0, // 20 MB L3 keeps DRAM traffic at baseline
		MemFixedLat:      2e-6,

		LinkBandwidth:  1e9,
		NetEfficiency:  0.90,
		NetHalfSatB:    8 << 10,
		NetMsgOverhead: 50e-6,

		PSysIdle:   68.0,
		PCoreAct:   PowerCurve{Static: 1.2, Dyn: 4.8, FRef: 1.8e9, Exp: 2.4},
		StallPower: 0.62,
		PMem:       9.0,
		PNet:       4.5,

		MeterNoiseW: 2.0,
		OSJitter:    0.03,
	}
}

// ARMCortexA9 returns the ARM Cortex-A9 cluster profile from Table 3:
// 8 nodes, 4 cores/node, 0.2-1.4 GHz, 1 GB LP-DDR2, 100 Mbps Ethernet.
func ARMCortexA9() *Profile {
	return &Profile{
		Name:         "arm-cortex-a9",
		ISA:          "armv7-a",
		MaxNodes:     8,
		CoresPerNode: 4,
		Frequencies:  []float64{0.2e9, 0.5e9, 0.8e9, 1.1e9, 1.4e9},

		CyclesPerWork:    2.5, // weaker IPC than the Xeon's wide OOO core
		BaseStallFrac:    2.2, // shallow pipeline exposes hazards
		MemBurstBytes:    1 << 20,
		MemBandwidth:     1.0e9,
		MemCoreBandwidth: 0.28e9,
		MemTrafficFactor: 7.0, // 1 MB L2, no L3: most traffic reaches DRAM
		MemFixedLat:      6e-6,

		LinkBandwidth:  100e6,
		NetEfficiency:  0.90,
		NetHalfSatB:    4 << 10,
		NetMsgOverhead: 80e-6,

		PSysIdle:   2.6,
		PCoreAct:   PowerCurve{Static: 0.08, Dyn: 0.85, FRef: 1.4e9, Exp: 1.9},
		StallPower: 0.55,
		PMem:       0.7,
		PNet:       0.9,

		MeterNoiseW: 0.4,
		OSJitter:    0.03,
	}
}

// builtin maps each built-in profile's name to its constructor, so a
// lookup builds only the profile it returns.
var builtin = map[string]func() *Profile{
	"xeon": XeonE5,
	"arm":  ARMCortexA9,
}

// Profiles returns the built-in profiles keyed by name.
func Profiles() map[string]*Profile {
	out := make(map[string]*Profile, len(builtin))
	for name, build := range builtin {
		out[name] = build()
	}
	return out
}

// ByName returns a fresh copy of a built-in profile ("xeon" or "arm").
func ByName(name string) (*Profile, error) {
	build, ok := builtin[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown profile %q (want xeon or arm)", name)
	}
	return build(), nil
}
