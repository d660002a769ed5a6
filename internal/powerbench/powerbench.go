// Package powerbench implements the paper's power characterisation
// (Sec. III.E.3): micro-benchmarks that stress the processor pipeline to
// measure per-core active and stall power across the full (c, f) range,
// plus system idle and NIC power — all read through the simulated WattsUp
// meter, whose reading carries the calibrated noise the paper reports
// (up to 2 W on Xeon, 0.4 W on ARM nodes). Memory power is taken from the
// JEDEC specification (the profile's datasheet value), as the paper does.
// Each micro-benchmark drives its simulated cores as des.Machines on a
// fresh kernel, so a characterisation leaves nothing running behind it.
package powerbench

import (
	"fmt"
	"math"

	"hybridperf/internal/core"
	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/rng"
	"hybridperf/internal/simnet"
)

// benchDuration is the simulated length of each micro-benchmark.
const benchDuration = 10.0 // s

// Result is the full power characterisation, including the per-(c,f) table
// the paper's methodology produces; the analytical model consumes the
// Model field.
type Result struct {
	Model core.PowerModel

	// Raw per-configuration node power readings [W], for diagnostics and
	// linearity checks: key is the (c,f) point, value the metered power.
	SpinWatts  map[machine.CF]float64
	StallWatts map[machine.CF]float64
	IdleWatts  float64
	NetWatts   float64 // sender-node power during a saturated stream
}

// meterRead converts an exact energy over a duration into a metered power
// reading with the profile's calibration noise.
func meterRead(energy, duration float64, prof *machine.Profile, noise *rng.Stream) float64 {
	p := energy/duration + noise.Normal(0, prof.MeterNoiseW)
	if p < 0 {
		p = 0
	}
	return p
}

// sleeper is a micro-benchmark driver that runs start (if any) at its
// first dispatch and then sleeps through the benchmark's duration.
type sleeper struct {
	start func()
	slept bool
}

// Step implements des.Machine.
func (s *sleeper) Step(p *des.Proc) bool {
	if s.slept {
		return true
	}
	if s.start != nil {
		s.start()
	}
	s.slept = true
	return p.AdvanceArm(benchDuration)
}

// burstLoop repeats one resumable burst on a core until the benchmark's
// duration has elapsed. A burst that blocked is resumed to completion
// before the clock is checked again.
type burstLoop struct {
	burst   func(p *des.Proc) bool // false: blocked, re-enter on the next Step
	inBurst bool
}

// Step implements des.Machine.
func (l *burstLoop) Step(p *des.Proc) bool {
	for l.inBurst || p.Now() < benchDuration {
		l.inBurst = true
		if !l.burst(p) {
			return false
		}
		l.inBurst = false
	}
	return true
}

// runIdle measures the idle node power.
func runIdle(prof *machine.Profile, noise *rng.Stream) (float64, error) {
	k := des.NewKernel()
	nd := node.New(k, prof, 0, 1, prof.FMax(), nil)
	k.Spawn("idle", &sleeper{})
	if err := k.Run(math.Inf(1)); err != nil {
		return 0, err
	}
	return meterRead(nd.Energy().Total(), benchDuration, prof, noise), nil
}

// runSpin measures node power with c cores spinning pure compute at f.
func runSpin(prof *machine.Profile, c int, f float64, noise *rng.Stream) (float64, error) {
	k := des.NewKernel()
	nd := node.New(k, prof, 0, c, f, nil)
	chunk := 0.25 * f / prof.CyclesPerWork // work units per 0.25 s slice
	for core := 0; core < c; core++ {
		var op node.ComputeOp
		op.Set(chunk, 0)
		k.Spawn(fmt.Sprintf("spin%d", core), &burstLoop{burst: func(p *des.Proc) bool {
			return nd.ComputeStep(&op, p, core)
		}})
	}
	if err := k.Run(math.Inf(1)); err != nil {
		return 0, err
	}
	elapsed := k.Now()
	return meterRead(nd.Energy().Total(), elapsed, prof, noise), nil
}

// runStall measures node power with c cores continuously stalled on
// memory (a pointer-chase analogue) at f.
func runStall(prof *machine.Profile, c int, f float64, noise *rng.Stream) (float64, error) {
	k := des.NewKernel()
	nd := node.New(k, prof, 0, c, f, nil)
	burst := prof.MemBandwidth * 0.25 / float64(c) // ~0.25 s per round at saturation
	for core := 0; core < c; core++ {
		var op node.MemOp
		op.Set(burst)
		k.Spawn(fmt.Sprintf("chase%d", core), &burstLoop{burst: func(p *des.Proc) bool {
			return nd.MemStep(&op, p, core)
		}})
	}
	if err := k.Run(math.Inf(1)); err != nil {
		return 0, err
	}
	elapsed := k.Now()
	return meterRead(nd.Energy().Total(), elapsed, prof, noise), nil
}

// runNet measures the sender-node power of a saturated outbound stream.
func runNet(prof *machine.Profile, noise *rng.Stream) (float64, error) {
	k := des.NewKernel()
	sw := simnet.New(k, prof, 2)
	nodes := []*node.Node{
		node.New(k, prof, 0, 1, prof.FMax(), nil),
		node.New(k, prof, 1, 1, prof.FMax(), nil),
	}
	world := mpi.NewWorld(k, sw, nodes)
	msg := 1 << 20 // 1 MiB messages keep the NIC busy
	perMsg := prof.MsgServiceTime(float64(msg))
	count := int(benchDuration/perMsg) + 1
	k.Spawn("stream", &sleeper{start: func() {
		r := world.Rank(0)
		for i := 0; i < count; i++ {
			r.Isend(1, float64(msg), mpi.TagHalo)
		}
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		return 0, err
	}
	elapsed := k.Now()
	return meterRead(nodes[0].Energy().Total(), elapsed, prof, noise), nil
}

// Characterize runs the full power characterisation for a profile. The
// seed controls the meter-noise draws, so a characterisation is exactly
// reproducible.
func Characterize(prof *machine.Profile, seed int64) (*Result, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	noise := rng.New(seed).Split("powerbench")
	res := &Result{
		SpinWatts:  make(map[machine.CF]float64),
		StallWatts: make(map[machine.CF]float64),
		Model: core.PowerModel{
			PAct:   make(map[float64]float64),
			PStall: make(map[float64]float64),
			// Pmem comes from the JEDEC datasheet, not a measurement.
			PMem: prof.PMem,
		},
	}

	idle, err := runIdle(prof, noise)
	if err != nil {
		return nil, fmt.Errorf("powerbench idle: %w", err)
	}
	res.IdleWatts = idle
	res.Model.PSysIdle = idle

	for _, f := range prof.Frequencies {
		for c := 1; c <= prof.CoresPerNode; c++ {
			spin, err := runSpin(prof, c, f, noise)
			if err != nil {
				return nil, fmt.Errorf("powerbench spin(%d,%.1f): %w", c, f/1e9, err)
			}
			res.SpinWatts[machine.CF{Cores: c, Freq: f}] = spin
			stall, err := runStall(prof, c, f, noise)
			if err != nil {
				return nil, fmt.Errorf("powerbench stall(%d,%.1f): %w", c, f/1e9, err)
			}
			res.StallWatts[machine.CF{Cores: c, Freq: f}] = stall
		}
		// Per-core figures from the full-occupancy runs (best SNR).
		cmax := float64(prof.CoresPerNode)
		full := machine.CF{Cores: prof.CoresPerNode, Freq: f}
		pact := (res.SpinWatts[full] - idle) / cmax
		pstall := (res.StallWatts[full] - idle - prof.PMem) / cmax
		if pact < 0 {
			pact = 0
		}
		if pstall < 0 {
			pstall = 0
		}
		res.Model.PAct[f] = pact
		res.Model.PStall[f] = pstall
	}

	netW, err := runNet(prof, noise)
	if err != nil {
		return nil, fmt.Errorf("powerbench net: %w", err)
	}
	res.NetWatts = netW
	pnet := netW - idle
	if pnet < 0 {
		pnet = 0
	}
	res.Model.PNet = pnet
	return res, nil
}
