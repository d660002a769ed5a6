// Package workload defines the hybrid parallel programs of the paper's
// evaluation as parameterised synthetic equivalents: the NPB multi-zone
// solvers LU, SP and BT, Quantum Espresso's Car-Parrinello (CP) and the
// OpenLB lattice-Boltzmann code (LB). Each program is S iterations of an
// OpenMP compute phase (work interleaved with DRAM bursts) followed by an
// MPI communication phase (halo exchange and/or allreduce), the structure
// of Listing 1 in the paper.
//
// The parameters — work per iteration, pipeline-stall fraction, memory
// traffic per work unit, message counts/volumes and their scaling with the
// node count — are the knobs through which each benchmark's published
// character (compute-bound CP, bandwidth-bound LB, halo-dominated solvers)
// is expressed. CP and LB additionally carry a synchronisation overhead
// that grows with the process count and is invisible to baseline
// (single-node) characterisation, reproducing the paper's reported model
// underestimation for those codes at high parallelism (Sec. IV.C).
package workload

import (
	"fmt"
	"math"
	"sort"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/mpi"
	"hybridperf/internal/omp"
)

// Class selects the program input size. The analytical model assumes
// resource demands scale linearly with input size (paper Sec. III.C), so
// classes scale the iteration count S while per-iteration structure is
// fixed — the regime Figure 7 validates.
type Class string

const (
	ClassTest Class = "T" // tiny, for unit tests
	ClassS    Class = "S" // baseline characterisation size (Ps)
	ClassA    Class = "A" // validation size (P)
	ClassC    Class = "C" // scale-out size, 4x class A (Figure 7)
)

// Classes lists the input classes from smallest to largest.
func Classes() []Class { return []Class{ClassTest, ClassS, ClassA, ClassC} }

// classIterMultiplier maps a class to its iteration-count multiplier
// relative to the baseline class S.
func classIterMultiplier(c Class) (float64, error) {
	switch c {
	case ClassTest:
		return 0.1, nil
	case ClassS:
		return 1, nil
	case ClassA:
		return 4, nil
	case ClassC:
		return 16, nil
	}
	return 0, fmt.Errorf("workload: unknown class %q", c)
}

// Spec is the parametric description of one hybrid program.
type Spec struct {
	Name   string // short code: LU, SP, BT, CP, LB
	Suite  string // provenance, for Table 2 rendering
	Domain string
	Lang   string // the paper stresses language independence

	// Computation phase.
	WorkPerIter     float64 // abstract work units per iteration, whole domain
	BFrac           float64 // program share of non-memory pipeline stalls
	MemBytesPerWork float64 // DRAM traffic per work unit before cache factor
	BaseIters       int     // iterations S at class S

	// Communication phase (per rank, per iteration).
	HaloMsgs    int     // point-to-point halo messages
	HaloBytesN2 float64 // halo message volume at n=2 [B]
	HaloExp     float64 // halo volume scaling: bytes(n) = N2*(2/n)^exp

	CollectiveBytes float64 // allreduce volume per round [B]; 0 = none
	BarrierPerIter  bool    // explicit global barrier each iteration

	// AlltoallVolume is the per-rank volume of a personalised all-to-all
	// exchange per iteration [B] (0 = none): each rank sends 1/n of it to
	// every peer, the transpose step of spectral codes like NPB FT.
	AlltoallVolume float64

	// Model-invisible synchronisation overhead: extra work per core per
	// iteration = SyncOverheadFrac * perCoreWork * log2(n) * log2(n*c),
	// growing with both the process and thread counts. Zero for the
	// solvers, positive for CP and LB. Single-node baseline runs see none
	// of it, which is exactly why the model cannot.
	SyncOverheadFrac float64

	// Imbalance skews per-rank work: rank r executes
	// (1 + Imbalance*r/(n-1)) times the mean per-core work, so low ranks
	// finish early and idle at synchronisation points. Zero for the paper
	// benchmarks (balanced SPMD); positive values create the inter-node
	// slack that runtime DVFS governors reclaim (internal/dvfs).
	Imbalance float64

	// OverlapPoint is the fraction of an iteration's compute after which
	// the master posts its non-blocking halo sends, enabling the
	// computation/communication overlap the model's Eq. (6) credits.
	OverlapPoint float64

	// MaxBurstsPerIter bounds memory-access granularity per core per
	// iteration (simulation cost knob; queueing-invariant, see node docs).
	MaxBurstsPerIter int
}

// Validate checks spec consistency.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.WorkPerIter <= 0:
		return fmt.Errorf("workload %s: WorkPerIter must be positive", s.Name)
	case s.BFrac < 0:
		return fmt.Errorf("workload %s: negative BFrac", s.Name)
	case s.MemBytesPerWork < 0:
		return fmt.Errorf("workload %s: negative MemBytesPerWork", s.Name)
	case s.BaseIters < 1:
		return fmt.Errorf("workload %s: BaseIters must be >= 1", s.Name)
	case s.HaloMsgs < 0 || s.HaloBytesN2 < 0 || s.CollectiveBytes < 0 || s.AlltoallVolume < 0:
		return fmt.Errorf("workload %s: negative communication parameter", s.Name)
	case s.OverlapPoint < 0 || s.OverlapPoint > 1:
		return fmt.Errorf("workload %s: OverlapPoint must be in [0,1]", s.Name)
	case s.Imbalance < 0:
		return fmt.Errorf("workload %s: negative Imbalance", s.Name)
	}
	return nil
}

// Iterations returns S for the given class.
func (s *Spec) Iterations(c Class) (int, error) {
	m, err := classIterMultiplier(c)
	if err != nil {
		return 0, err
	}
	it := int(math.Round(float64(s.BaseIters) * m))
	if it < 2 {
		it = 2
	}
	return it, nil
}

// HaloBytes returns the per-message halo volume for an n-node run: the
// per-node domain share shrinks with n, so the exchanged surface does too.
func (s *Spec) HaloBytes(n int) float64 {
	if n < 2 || s.HaloMsgs == 0 {
		return 0
	}
	return s.HaloBytesN2 * math.Pow(2/float64(n), s.HaloExp)
}

// MsgClass describes one class of messages a rank sends per iteration.
// Sync marks globally synchronised collective rounds (allreduce, barrier),
// whose switch drain lands on the critical path in full.
type MsgClass struct {
	Count int     // messages per rank per iteration
	Bytes float64 // volume per message [B]
	Sync  bool    // collective round (blocks all ranks)
}

// MsgClasses returns the per-iteration, per-rank message mix for an n-node
// run — the communication characteristics the model infers from l(=n)
// (paper Sec. III.E.1). Empty for single-node runs.
func (s *Spec) MsgClasses(n int) []MsgClass {
	if n < 2 {
		return nil
	}
	var out []MsgClass
	if s.HaloMsgs > 0 {
		out = append(out, MsgClass{Count: s.HaloMsgs, Bytes: s.HaloBytes(n)})
	}
	rounds := mpi.ReduceRounds(n)
	if s.CollectiveBytes > 0 {
		out = append(out, MsgClass{Count: rounds, Bytes: s.CollectiveBytes, Sync: true})
	}
	if s.AlltoallVolume > 0 {
		out = append(out, MsgClass{Count: n - 1, Bytes: s.AlltoallVolume / float64(n), Sync: true})
	}
	if s.BarrierPerIter {
		out = append(out, MsgClass{Count: rounds, Bytes: 8, Sync: true})
	}
	return out
}

// MsgsPerIter returns η per rank per iteration at n nodes.
func (s *Spec) MsgsPerIter(n int) int {
	total := 0
	for _, mc := range s.MsgClasses(n) {
		total += mc.Count
	}
	return total
}

// MeanMsgBytes returns ν, the mean message volume at n nodes.
func (s *Spec) MeanMsgBytes(n int) float64 {
	var msgs int
	var bytes float64
	for _, mc := range s.MsgClasses(n) {
		msgs += mc.Count
		bytes += float64(mc.Count) * mc.Bytes
	}
	if msgs == 0 {
		return 0
	}
	return bytes / float64(msgs)
}

// Env is the per-rank execution environment a program runs in.
type Env struct {
	Rank  *mpi.Rank
	Team  *omp.Team
	Class Class

	// Phase timelines are recorded at the engine level — attach a
	// trace.Recorder to the node (Node.SetTrace) and every compute burst,
	// memory stall and network wait of the rank's master thread is
	// captured, finer-grained than program-level regions and identical for
	// every program.

	// Governor, when set, is consulted at every iteration boundary with
	// the rank's network-wait fraction and may retune the node's DVFS
	// level — the runtime slack-reclamation technique of the paper's
	// related work (see internal/dvfs). Note that under a varying
	// frequency the end-of-run cycle counters are approximate (times are
	// converted at the final frequency); time and energy stay exact.
	Governor dvfs.Governor
}

// postHalo sends the rank's halo messages for one iteration: neighbours at
// offsets +1, -1, +2, -2, ... modulo the world size, so every rank also
// receives exactly HaloMsgs messages per iteration.
func (s *Spec) postHalo(r *mpi.Rank, n int) {
	bytes := s.HaloBytes(n)
	for m := 0; m < s.HaloMsgs; m++ {
		offset := m/2 + 1
		if m%2 == 1 {
			offset = -offset
		}
		dst := ((r.ID()+offset)%n + n) % n
		r.Isend(dst, bytes, mpi.TagHalo)
	}
}

// The five benchmark programs of the paper's evaluation (Table 2).
func LU() *Spec {
	return &Spec{
		Name: "LU", Suite: "NPB3.3-MZ", Domain: "3D Navier-Stokes Equation Solver", Lang: "Fortran",
		WorkPerIter: 6e9, BFrac: 0.09, MemBytesPerWork: 0.45, BaseIters: 40,
		HaloMsgs: 2, HaloBytesN2: 300e3, HaloExp: 0.7,
		OverlapPoint: 0.7,
	}
}

func SP() *Spec {
	return &Spec{
		Name: "SP", Suite: "NPB3.3-MZ", Domain: "3D Navier-Stokes Equation Solver", Lang: "Fortran",
		WorkPerIter: 7e9, BFrac: 0.11, MemBytesPerWork: 0.80, BaseIters: 40,
		HaloMsgs: 4, HaloBytesN2: 400e3, HaloExp: 0.7,
		OverlapPoint: 0.7,
	}
}

func BT() *Spec {
	return &Spec{
		Name: "BT", Suite: "NPB3.3-MZ", Domain: "3D Navier-Stokes Equation Solver", Lang: "Fortran",
		WorkPerIter: 8e9, BFrac: 0.10, MemBytesPerWork: 0.45, BaseIters: 40,
		HaloMsgs: 3, HaloBytesN2: 500e3, HaloExp: 0.7,
		OverlapPoint: 0.7,
	}
}

func CP() *Spec {
	return &Spec{
		Name: "CP", Suite: "Quantum Espresso (v5.1)", Domain: "Electronic-structure Calculations", Lang: "Fortran",
		WorkPerIter: 20e9, BFrac: 0.13, MemBytesPerWork: 0.65, BaseIters: 40,
		CollectiveBytes:  4e6,
		SyncOverheadFrac: 0.006,
		OverlapPoint:     0.7,
	}
}

func LB() *Spec {
	return &Spec{
		Name: "LB", Suite: "OpenLB (olb-0.8r0)", Domain: "Computational Fluid Dynamics", Lang: "C++",
		WorkPerIter: 5e9, BFrac: 0.08, MemBytesPerWork: 0.95, BaseIters: 40,
		HaloMsgs: 6, HaloBytesN2: 400e3, HaloExp: 0.6,
		BarrierPerIter:   true,
		SyncOverheadFrac: 0.008,
		OverlapPoint:     0.7,
	}
}

// FT is a sixth, extension program beyond the paper's five: a 3D-FFT
// spectral solver in the style of NPB FT, whose per-iteration transpose is
// a personalised all-to-all — the communication pattern the paper's suite
// does not cover. It demonstrates that the approach generalises to
// alltoall-dominated codes (and exercises mpi.Alltoall end to end).
func FT() *Spec {
	return &Spec{
		Name: "FT", Suite: "NPB3.3 (extension)", Domain: "3D Fast Fourier Transform", Lang: "Fortran",
		WorkPerIter: 10e9, BFrac: 0.12, MemBytesPerWork: 0.50, BaseIters: 40,
		AlltoallVolume: 4e6,
		OverlapPoint:   0.7,
	}
}

// Programs returns the five benchmark specs in the paper's Table 2 order.
func Programs() []*Spec { return []*Spec{LU(), SP(), BT(), CP(), LB()} }

// Extended returns the paper's five programs plus the FT extension.
func Extended() []*Spec { return append(Programs(), FT()) }

// builtin maps each built-in program's name to its constructor, so a
// lookup builds only the spec it returns.
var builtin = map[string]func() *Spec{
	"LU": LU, "SP": SP, "BT": BT, "CP": CP, "LB": LB, "FT": FT,
}

// ByName returns a fresh copy of one of the built-in programs.
func ByName(name string) (*Spec, error) {
	if build, ok := builtin[name]; ok {
		return build(), nil
	}
	names := make([]string, 0, len(builtin))
	for n := range builtin {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown program %q (want one of %v)", name, names)
}

// Synthetic builds a custom program spec for experimentation; callers must
// Validate it before use.
func Synthetic(name string, workPerIter, memBytesPerWork float64, baseIters, haloMsgs int, haloBytes float64) *Spec {
	return &Spec{
		Name: name, Suite: "synthetic", Domain: "synthetic", Lang: "Go",
		WorkPerIter: workPerIter, BFrac: 0.1, MemBytesPerWork: memBytesPerWork,
		BaseIters: baseIters, HaloMsgs: haloMsgs, HaloBytesN2: haloBytes, HaloExp: 0.7,
		OverlapPoint: 0.7,
	}
}
