package workload

import (
	"math"

	"hybridperf/internal/des"
	"hybridperf/internal/dvfs"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/omp"
)

// This file compiles a Spec into the continuation form the DES runs: runM
// is the hybrid loop of Listing 1 as an explicit state machine, bodyM the
// parallel-region body.

// runM states: the phases of one iteration of the hybrid loop.
const (
	rsRegion int8 = iota // open the parallel region
	rsBody               // master's share of the region body
	rsJoin               // armed wait for worker stragglers
	rsAllreduce
	rsAlltoall
	rsHalo
	rsBarrier
)

// bodyM states: the burst loop inside a region.
const (
	bsCompute int8 = iota
	bsMem
	bsExtra
)

// runM is one rank's program as a des.Machine.
type runM struct {
	spec *Spec
	env  *Env

	// Per-run structure, derived once.
	iters        int
	n            int
	nd           *node.Node
	bursts       int
	overlapBurst int
	segWork      float64
	segBytes     float64
	extraWork    float64

	started      bool
	it           int
	pc           int8
	haloExpected int
	iterStart    float64
	lastNetWait  float64
	lastCompute  float64
	lastMemStall float64

	body   bodyM // the master thread's region body (tid 0)
	mkBody func(tid int) omp.Body
	th     *omp.Thread

	ar  mpi.AllreduceOp
	a2a mpi.AlltoallOp
	wc  mpi.WaitCountOp
	bar mpi.AllreduceOp
}

// bodyM is the parallel-region body in continuation form, shared by the
// master (driven from runM) and the workers (driven by the omp pool). It
// self-resets on completion for the next region.
type bodyM struct {
	r    *runM
	b    int
	pc   int8
	comp node.ComputeOp
	mem  node.MemOp
}

// Machine compiles the program into a des.Machine for env's rank: the
// hybrid loop of Listing 1, S iterations of an OpenMP compute phase
// followed by an MPI communication phase. Errors are structural (unknown
// class) and detected before simulation starts.
func (s *Spec) Machine(env *Env) (des.Machine, error) {
	iters, err := s.Iterations(env.Class)
	if err != nil {
		return nil, err
	}
	nd := env.Team.Node()
	prof := nd.Profile()
	n := env.Rank.World().Size()
	c := env.Team.Size()

	perCoreWork := s.WorkPerIter / float64(n*c)
	if s.Imbalance > 0 && n > 1 {
		perCoreWork *= 1 + s.Imbalance*float64(env.Rank.ID())/float64(n-1)
	}
	traffic := perCoreWork * s.MemBytesPerWork * prof.MemTrafficFactor
	bursts := 1
	if traffic > 0 {
		bursts = int(math.Ceil(traffic / prof.MemBurstBytes))
		max := s.MaxBurstsPerIter
		if max <= 0 {
			max = 8
		}
		if bursts > max {
			bursts = max
		}
	}
	segWork := perCoreWork / float64(bursts)
	segBytes := traffic / float64(bursts)
	overlapBurst := int(s.OverlapPoint * float64(bursts))
	if overlapBurst >= bursts {
		overlapBurst = bursts - 1
	}
	extraWork := 0.0
	if s.SyncOverheadFrac > 0 && n > 1 {
		extraWork = s.SyncOverheadFrac * perCoreWork * math.Log2(float64(n)) * math.Log2(float64(n*c))
	}

	m := &runM{
		spec: s, env: env,
		iters: iters, n: n, nd: nd,
		bursts: bursts, overlapBurst: overlapBurst,
		segWork: segWork, segBytes: segBytes, extraWork: extraWork,
		ar:  mpi.AllreduceOp{Bytes: s.CollectiveBytes},
		a2a: mpi.AlltoallOp{Bytes: s.AlltoallVolume / float64(n)},
		bar: mpi.AllreduceOp{Bytes: 8},
	}
	m.body.r = m
	m.mkBody = func(tid int) omp.Body { return &bodyM{r: m} }
	return m, nil
}

// Step implements des.Machine: the hybrid loop of Listing 1, one phase
// transition per resumption.
func (m *runM) Step(p *des.Proc) bool {
	if !m.started {
		m.started = true
		m.iterStart = p.Now()
	}
	for m.it < m.iters {
		switch m.pc {
		case rsRegion:
			m.th = m.env.Team.RegionBegin(p, m.mkBody)
			m.pc = rsBody
			fallthrough
		case rsBody:
			if !m.body.Step(m.th) {
				return false
			}
			m.pc = rsJoin
			if !m.env.Team.RegionJoinArm(p) {
				return false
			}
			fallthrough
		case rsJoin:
			m.pc = rsAllreduce
			fallthrough
		case rsAllreduce:
			if m.n > 1 && m.spec.CollectiveBytes > 0 {
				if !m.env.Rank.AllreduceStep(&m.ar, p) {
					return false
				}
			}
			m.pc = rsAlltoall
			fallthrough
		case rsAlltoall:
			if m.n > 1 && m.spec.AlltoallVolume > 0 {
				if !m.env.Rank.AlltoallStep(&m.a2a, p) {
					return false
				}
			}
			if m.n > 1 && m.spec.HaloMsgs > 0 {
				m.haloExpected += m.spec.HaloMsgs
				m.wc = mpi.WaitCountOp{Tag: mpi.TagHalo, Target: m.haloExpected}
			}
			m.pc = rsHalo
			fallthrough
		case rsHalo:
			if m.n > 1 && m.spec.HaloMsgs > 0 {
				if !m.env.Rank.WaitCountStep(&m.wc, p) {
					return false
				}
			}
			m.pc = rsBarrier
			fallthrough
		case rsBarrier:
			if m.n > 1 && m.spec.BarrierPerIter {
				if !m.env.Rank.AllreduceStep(&m.bar, p) {
					return false
				}
			}
			if g := m.env.Governor; g != nil {
				dur := p.Now() - m.iterStart
				netWait := m.nd.Ctrs[0].NetWaitTime
				if pa, ok := g.(dvfs.PhaseAware); ok {
					compute := m.nd.Ctrs[0].WorkTime + m.nd.Ctrs[0].BStallTime
					memStall := m.nd.Ctrs[0].MemStallTime
					pa.ObservePhases(m.it, dvfs.PhaseSample{
						Compute:  compute - m.lastCompute,
						MemStall: memStall - m.lastMemStall,
						NetWait:  netWait - m.lastNetWait,
					})
					m.lastCompute, m.lastMemStall = compute, memStall
				}
				frac := 0.0
				if dur > 0 {
					frac = (netWait - m.lastNetWait) / dur
				}
				if nf := g.AfterIteration(m.it, dur, frac, m.nd.Freq()); nf != m.nd.Freq() {
					m.nd.SetFreq(nf)
				}
				m.lastNetWait = netWait
				m.iterStart = p.Now()
			}
			m.it++
			m.pc = rsRegion
		}
	}
	return true
}

// Step implements omp.Body: the burst loop of one region on one thread.
func (m *bodyM) Step(th *omp.Thread) bool {
	r := m.r
	for m.b < r.bursts {
		switch m.pc {
		case bsCompute:
			m.comp.Set(r.segWork, r.spec.BFrac)
			if !th.ComputeStep(&m.comp) {
				return false
			}
			if th.ID == 0 && r.n > 1 && m.b == r.overlapBurst {
				r.spec.postHalo(r.env.Rank, r.n)
			}
			m.mem.Set(r.segBytes)
			m.pc = bsMem
			fallthrough
		case bsMem:
			if !th.MemStep(&m.mem) {
				return false
			}
			m.b++
			m.pc = bsCompute
		}
	}
	if r.extraWork > 0 {
		if m.pc != bsExtra {
			m.comp.Set(r.extraWork, r.spec.BFrac)
			m.pc = bsExtra
		}
		if !th.ComputeStep(&m.comp) {
			return false
		}
	}
	m.b = 0
	m.pc = bsCompute
	return true
}
