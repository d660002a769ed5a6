// Package netpipe reproduces the paper's network characterisation
// (Sec. III.E.2, Figure 3): a NetPIPE-style ping-pong between two nodes
// sweeping message sizes, yielding the latency and throughput curve and a
// fitted service-time model y(s) = Overhead + s/Peak for the analytical
// model. On a 100 Mbps link the measured peak lands near 90 Mbps — the
// MPI/OS overhead the paper observes. The two ranks are des.Machines on
// a fresh kernel.
package netpipe

import (
	"fmt"
	"math"

	"hybridperf/internal/core"
	"hybridperf/internal/des"
	"hybridperf/internal/machine"
	"hybridperf/internal/mpi"
	"hybridperf/internal/node"
	"hybridperf/internal/simnet"
)

// Point is one measured message size.
type Point struct {
	Bytes      float64 // message size [B]
	Latency    float64 // one-way latency [s]
	Throughput float64 // achieved throughput [B/s]
}

// Mbps returns the point's throughput in megabits per second, the unit of
// Figure 3.
func (p Point) Mbps() float64 { return p.Throughput * 8 / 1e6 }

// DefaultSizes returns the sweep of Figure 3: powers of two from 1 B to
// 16 MB.
func DefaultSizes() []float64 {
	var sizes []float64
	for s := 1.0; s <= 16<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Measure runs the ping-pong over the given sizes with `reps` round trips
// per size and returns one point per size.
func Measure(prof *machine.Profile, sizes []float64, reps int) ([]Point, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prof.MaxNodes < 2 {
		return nil, fmt.Errorf("netpipe: need at least 2 nodes, profile %s has %d", prof.Name, prof.MaxNodes)
	}
	if reps < 1 {
		reps = 1
	}

	k := des.NewKernel()
	sw := simnet.New(k, prof, 2)
	nodes := []*node.Node{
		node.New(k, prof, 0, 1, prof.FMax(), nil),
		node.New(k, prof, 1, 1, prof.FMax(), nil),
	}
	world := mpi.NewWorld(k, sw, nodes)

	// Rank 1 echoes each of the len(sizes)*reps messages back; rank 0
	// sends, waits for the echo and times each size's round trips.
	k.Spawn("echo", &echo{r: world.Rank(1), sizes: sizes, reps: reps})
	pp := &pingpong{r: world.Rank(0), sizes: sizes, reps: reps, points: make([]Point, 0, len(sizes))}
	k.Spawn("pingpong", pp)
	if err := k.Run(math.Inf(1)); err != nil {
		return nil, fmt.Errorf("netpipe: %w", err)
	}
	return pp.points, nil
}

// echo is rank 1 of the ping-pong: it waits for message n+1 and sends
// it straight back, for every message of the sweep.
type echo struct {
	r       *mpi.Rank
	sizes   []float64
	reps    int
	n       int // messages echoed so far
	wait    mpi.WaitCountOp
	waiting bool
}

// Step implements des.Machine.
func (e *echo) Step(p *des.Proc) bool {
	for e.n < len(e.sizes)*e.reps {
		if !e.waiting {
			e.wait = mpi.WaitCountOp{Tag: mpi.TagHalo, Target: e.n + 1}
			e.waiting = true
		}
		if !e.r.WaitCountStep(&e.wait, p) {
			return false
		}
		e.waiting = false
		e.r.Isend(0, e.sizes[e.n/e.reps], mpi.TagHalo)
		e.n++
	}
	return true
}

// pingpong is rank 0: per size it runs reps round trips and records half
// the mean round-trip time as the one-way latency.
type pingpong struct {
	r       *mpi.Rank
	sizes   []float64
	reps    int
	n       int // round trips completed
	start   float64
	wait    mpi.WaitCountOp
	waiting bool
	points  []Point
}

// Step implements des.Machine.
func (pp *pingpong) Step(p *des.Proc) bool {
	for pp.n < len(pp.sizes)*pp.reps {
		size := pp.sizes[pp.n/pp.reps]
		if !pp.waiting {
			if pp.n%pp.reps == 0 {
				pp.start = p.Now()
			}
			pp.r.Isend(1, size, mpi.TagHalo)
			pp.wait = mpi.WaitCountOp{Tag: mpi.TagHalo, Target: pp.n + 1}
			pp.waiting = true
		}
		if !pp.r.WaitCountStep(&pp.wait, p) {
			return false
		}
		pp.waiting = false
		pp.n++
		if pp.n%pp.reps == 0 {
			lat := (p.Now() - pp.start) / float64(pp.reps) / 2
			pp.points = append(pp.points, Point{Bytes: size, Latency: lat, Throughput: size / lat})
		}
	}
	return true
}

// Fit performs the least-squares fit of latency against message size,
// recovering the affine service model the analytical model consumes:
// latency(s) = Overhead + s/Peak.
func Fit(points []Point) (core.NetModel, error) {
	if len(points) < 2 {
		return core.NetModel{}, fmt.Errorf("netpipe: need >= 2 points to fit, got %d", len(points))
	}
	var n, sx, sy, sxx, sxy float64
	for _, p := range points {
		n++
		sx += p.Bytes
		sy += p.Latency
		sxx += p.Bytes * p.Bytes
		sxy += p.Bytes * p.Latency
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return core.NetModel{}, fmt.Errorf("netpipe: degenerate size sweep")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	if slope <= 0 {
		return core.NetModel{}, fmt.Errorf("netpipe: non-positive bandwidth fit (slope %g)", slope)
	}
	if intercept < 0 {
		intercept = 0
	}
	return core.NetModel{Overhead: intercept, Peak: 1 / slope}, nil
}

// Characterize measures with the default sweep and fits the service model.
func Characterize(prof *machine.Profile) ([]Point, core.NetModel, error) {
	points, err := Measure(prof, DefaultSizes(), 3)
	if err != nil {
		return nil, core.NetModel{}, err
	}
	nm, err := Fit(points)
	if err != nil {
		return nil, core.NetModel{}, err
	}
	return points, nm, nil
}
