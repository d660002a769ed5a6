package des

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// floatBefore is the plain (t, seq) comparison the ordered event key must
// agree with: the oracle for earlier.
func floatBefore(at float64, as uint64, bt float64, bs uint64) bool {
	return at < bt || (at == bt && as < bs)
}

func TestEarlierMatchesFloatOrder(t *testing.T) {
	times := []float64{0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e-300, 0.5, 1, 1 + 0x1p-52, 2, 1e300, math.MaxFloat64, math.Inf(1)}
	seqs := []uint64{0, 1, 2, 1 << 32, math.MaxUint64 - 1, math.MaxUint64}
	for _, at := range times {
		for _, as := range seqs {
			for _, bt := range times {
				for _, bs := range seqs {
					got := earlier(math.Float64bits(at), as, math.Float64bits(bt), bs) == 1
					if want := floatBefore(at, as, bt, bs); got != want {
						t.Fatalf("earlier((%g,%d), (%g,%d)) = %v, want %v", at, as, bt, bs, got, want)
					}
				}
			}
		}
	}
}

// TestNegativeZeroAdvanceOrdersAsZero pins the t >= +0 invariant at its
// one source of -0: AdvanceArm(-0) at time +0 must store +0, or the
// event's key (sign bit set) would order it after every positive time.
func TestNegativeZeroAdvanceOrdersAsZero(t *testing.T) {
	k := NewKernel()
	var order []string
	// "later" parks a wake at t=1 in the heap; "third" keeps the FIFO
	// non-empty, so the -0 advance is scheduled instead of fast-pathed.
	laterPC := 0
	k.Spawn("later", &stepper{func(p *Proc) bool {
		if laterPC == 0 {
			laterPC = 1
			if p.AdvanceArm(1) {
				t.Fatal("advance took the fast path with events pending")
			}
			return false
		}
		order = append(order, "later")
		return true
	}})
	negPC := 0
	k.Spawn("negzero", &stepper{func(p *Proc) bool {
		if negPC == 0 {
			negPC = 1
			if p.AdvanceArm(math.Copysign(0, -1)) {
				t.Fatal("advance took the fast path with events pending")
			}
			for _, e := range append(k.imm[k.immH:], k.heap...) {
				if math.Signbit(e.t) {
					t.Fatalf("stored event time %g has its sign bit set", e.t)
				}
			}
			return false
		}
		order = append(order, "negzero")
		return true
	}})
	k.Spawn("third", &stepper{func(p *Proc) bool {
		order = append(order, "third")
		return true
	}})
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if want := "[third negzero later]"; fmt.Sprint(order) != want {
		t.Fatalf("dispatch order %v, want %s", order, want)
	}
}

// The op alphabet of FuzzEventOrder: each op is one byte, read mod numOps.
const (
	opAdvance = iota // advance by a dt drawn from the next byte(s)
	opHalt           // halt until another process wakes this one
	opWake           // wake the halted process named by the next byte
	opSpawn          // spawn a new process
	opFinish         // end this process
	numOps
)

// FuzzEventOrder decodes bytes into spawn, advance, halt and wake
// operations and checks the kernel against an oracle that tracks every
// armed wake: each one dispatches exactly once, at its own time, and
// dispatches (including lookahead fast-path advances) come in
// non-decreasing (t, seq) order under the plain float comparison. The dt
// alphabet covers the edges of the ordered key: 0, -0, NaN, +Inf, a
// subnormal, the time of another pending event, and a random value. The
// seed corpus lives in testdata/fuzz/FuzzEventOrder.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &orderOracle{t: t, data: data, k: NewKernel()}
		o.spawn()
		err := o.k.Run(math.Inf(1))
		var de *DeadlockError
		if err != nil && !errors.As(err, &de) {
			t.Fatalf("Run: %v", err)
		}
		for i, w := range o.pending {
			if w.armed {
				t.Fatalf("process %d: wake (t=%g, seq=%d) armed but never dispatched", i, w.t, w.seq)
			}
		}
		if de != nil {
			halted := 0
			for _, p := range o.procs {
				if p.halted && !p.done {
					halted++
				}
			}
			if halted == 0 {
				t.Fatalf("deadlock reported with no halted process: %v", err)
			}
		}
	})
}

// maxFuzzProcs bounds the processes one fuzz input can spawn.
const maxFuzzProcs = 64

type pendingWake struct {
	armed bool
	t     float64
	seq   uint64
}

// orderOracle drives the kernel from the fuzz bytes and checks every
// dispatch against the armed wakes it recorded.
type orderOracle struct {
	t       *testing.T
	data    []byte
	k       *Kernel
	procs   []*Proc
	pending []pendingWake

	lastT   float64
	lastSeq uint64
}

func (o *orderOracle) next() (byte, bool) {
	if len(o.data) == 0 {
		return 0, false
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b, true
}

// arm records the wake just scheduled for process i at time t.
func (o *orderOracle) arm(i int, t float64) {
	p := o.procs[i]
	if o.pending[i].armed {
		o.t.Fatalf("process %d armed twice", i)
	}
	if p.wakeSeq == 0 {
		o.t.Fatalf("process %d: no wake sequence after arming", i)
	}
	o.pending[i] = pendingWake{armed: true, t: t, seq: p.wakeSeq}
}

func (o *orderOracle) spawn() {
	i := len(o.procs)
	o.procs = append(o.procs, o.k.Spawn("p", &fuzzProc{o: o, id: i}))
	o.pending = append(o.pending, pendingWake{})
	o.arm(i, o.k.Now())
}

// dispatched checks the dispatch of process i against its armed wake.
func (o *orderOracle) dispatched(i int) {
	w := o.pending[i]
	if !w.armed {
		o.t.Fatalf("process %d dispatched without an armed wake", i)
	}
	o.pending[i].armed = false
	now := o.k.Now()
	if now != w.t || math.Signbit(now) {
		o.t.Fatalf("process %d armed for t=%g dispatched at t=%g", i, w.t, now)
	}
	if !floatBefore(o.lastT, o.lastSeq, w.t, w.seq) {
		o.t.Fatalf("process %d: (t=%g, seq=%d) dispatched after (t=%g, seq=%d)", i, w.t, w.seq, o.lastT, o.lastSeq)
	}
	o.lastT, o.lastSeq = w.t, w.seq
}

// advanced checks a lookahead fast-path advance to t: no pending wake may
// precede it, so it orders like a dispatch that every later-scheduled
// event follows.
func (o *orderOracle) advanced(i int, t float64) {
	if t < o.lastT {
		o.t.Fatalf("process %d: clock moved back from %g to %g", i, o.lastT, t)
	}
	for j, w := range o.pending {
		if w.armed && !(w.t > t) {
			o.t.Fatalf("process %d advanced to t=%g past process %d's wake (t=%g, seq=%d)", i, t, j, w.t, w.seq)
		}
	}
	o.lastT, o.lastSeq = t, o.k.seq
}

// dt decodes one advance duration from the alphabet in FuzzEventOrder.
func (o *orderOracle) dt() float64 {
	sel, _ := o.next()
	switch sel % 7 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.SmallestNonzeroFloat64
	case 5:
		// Land on another pending wake's time (all are >= now).
		j, _ := o.next()
		if w := o.pending[int(j)%len(o.pending)]; w.armed {
			return w.t - o.k.Now()
		}
		return 1
	default:
		hi, _ := o.next()
		lo, _ := o.next()
		return float64(int16(uint16(hi)<<8|uint16(lo))) / 64
	}
}

type fuzzProc struct {
	o  *orderOracle
	id int
}

func (m *fuzzProc) Step(p *Proc) bool {
	o := m.o
	o.dispatched(m.id)
	for {
		op, ok := o.next()
		if !ok {
			return true
		}
		switch op % numOps {
		case opAdvance:
			dt := o.dt()
			t := dt
			if t < 0 || math.IsNaN(t) {
				t = 0
			}
			t += p.Now()
			if p.AdvanceArm(dt) {
				o.advanced(m.id, t)
				continue
			}
			o.arm(m.id, t)
			return false
		case opHalt:
			p.HaltArm()
			return false
		case opWake:
			j, _ := o.next()
			i := int(j) % len(o.procs)
			if q := o.procs[i]; q.halted && !q.done {
				q.Wake()
				o.arm(i, p.Now())
			}
		case opSpawn:
			if len(o.procs) < maxFuzzProcs {
				o.spawn()
			}
		case opFinish:
			return true
		}
	}
}
