package des

import (
	"math"
	"testing"
)

// advancer advances dt, n times.
type advancer struct {
	n  int
	dt float64
}

func (m *advancer) Step(p *Proc) bool {
	for m.n > 0 {
		m.n--
		if !p.AdvanceArm(m.dt) {
			return false
		}
	}
	return true
}

// pingPong wakes its halted partner and halts itself, n times, then wakes
// the partner one last time and finishes.
type pingPong struct {
	partner *Proc
	n       int
}

func (m *pingPong) Step(p *Proc) bool {
	if m.partner.halted {
		m.partner.Wake()
	}
	if m.n == 0 {
		return true
	}
	m.n--
	p.HaltArm()
	return false
}

// BenchmarkAdvance measures the per-step cost of a lone process stepping
// virtual time — the kernel's best case: every advance takes the
// lookahead fast path and dispatches no event.
func BenchmarkAdvance(b *testing.B) {
	k := NewKernel()
	k.Spawn("ticker", &advancer{n: b.N, dt: 1})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHaltWake measures the immediate-dispatch path: two processes
// handing control back and forth at the same virtual instant, the pattern
// of condition broadcasts, region joins and resource hand-offs. One op is
// one wake and one dispatch.
func BenchmarkHaltWake(b *testing.B) {
	k := NewKernel()
	ping, pong := &pingPong{n: b.N / 2}, &pingPong{n: b.N / 2}
	pong.partner = k.Spawn("ping", ping)
	ping.partner = k.Spawn("pong", pong)
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkManyProcs measures heap-bound throughput: 256 concurrent
// processes with staggered delays keep the event queue deep, so every
// advance pays the full priority-queue cost. One op is one dispatched
// event.
func BenchmarkManyProcs(b *testing.B) {
	const procs = 256
	k := NewKernel()
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		// Distinct periods keep the heap busy.
		k.Spawn("p", &advancer{n: perProc, dt: 1 + float64(i)/procs})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(math.Inf(1)); err != nil {
		b.Fatal(err)
	}
}
