package simnet

import (
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
	"hybridperf/internal/machine"
)

// transfer arms op for one transfer and returns it as a script step; once
// the step completes, op.wait and op.service hold the transfer's queueing
// delay and service time.
func transfer(net Network, op *TransferOp, src, dst int, bytes float64) destest.Step {
	op.Set(src, dst, bytes)
	return func(p *des.Proc) bool { return net.TransferStep(op, p) }
}

// finishAt returns a step recording the process's completion time in *at.
func finishAt(at *float64) destest.Step {
	return destest.Do(func(p *des.Proc) { *at = p.Now() })
}

func TestTransferServiceMatchesProfile(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	sw := NewSwitch(k, prof)
	var op TransferOp
	k.Spawn("m", destest.Script(transfer(sw, &op, 0, 1, 1<<20)))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	wait, service := op.wait, op.service
	if wait != 0 {
		t.Fatalf("uncontended wait = %g", wait)
	}
	want := prof.MsgServiceTime(1 << 20)
	if math.Abs(service-want) > 1e-12 {
		t.Fatalf("service = %g, want %g", service, want)
	}
	if math.Abs(k.Now()-want) > 1e-12 {
		t.Fatalf("elapsed = %g, want %g", k.Now(), want)
	}
	if got := sw.ServiceTime(1 << 20); got != want {
		t.Fatalf("ServiceTime = %g, want %g", got, want)
	}
}

func TestSwitchContention(t *testing.T) {
	prof := machine.ARMCortexA9()
	k := des.NewKernel()
	sw := NewSwitch(k, prof)
	const n = 4
	ops := make([]TransferOp, n)
	for i := range ops {
		k.Spawn("m", destest.Script(transfer(sw, &ops[i], i, 0, 1<<20)))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	svc := prof.MsgServiceTime(1 << 20)
	for i := range ops {
		w, want := ops[i].wait, float64(i)*svc
		if math.Abs(w-want) > 1e-9 {
			t.Fatalf("message %d wait = %g, want %g (FCFS serialization)", i, w, want)
		}
	}
	s := sw.Stats()
	if s.Served != n {
		t.Fatalf("served = %d", s.Served)
	}
	if math.Abs(s.Utilization-1) > 1e-9 {
		t.Fatalf("switch utilization = %g, want 1 under saturation", s.Utilization)
	}
}

func TestSmallVsLargeMessageEfficiency(t *testing.T) {
	// Per-byte cost should be much higher for tiny messages (overhead-
	// dominated), matching the Figure 3 throughput curve.
	prof := machine.ARMCortexA9()
	k := des.NewKernel()
	sw := NewSwitch(k, prof)
	perByteSmall := sw.ServiceTime(64) / 64
	perByteLarge := sw.ServiceTime(4<<20) / (4 << 20)
	if perByteSmall < perByteLarge*10 {
		t.Fatalf("small-message per-byte cost %g not dominated by overhead (large %g)", perByteSmall, perByteLarge)
	}
	_ = k
}

func TestCrossbarDisjointPairsParallel(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	x := NewCrossbar(k, prof, 4)
	done := make([]float64, 2)
	var a, b TransferOp
	k.Spawn("a", destest.Script(transfer(x, &a, 0, 1, 1<<20), finishAt(&done[0])))
	k.Spawn("b", destest.Script(transfer(x, &b, 2, 3, 1<<20), finishAt(&done[1])))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	svc := prof.MsgServiceTime(1 << 20)
	for i, d := range done {
		if math.Abs(d-svc) > 1e-12 {
			t.Fatalf("transfer %d finished at %g, want %g (parallel pairs)", i, d, svc)
		}
	}
}

func TestCrossbarIncastSerializes(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	const n = 5
	x := NewCrossbar(k, prof, n)
	var last float64
	ops := make([]TransferOp, n)
	for i := 1; i < n; i++ {
		k.Spawn("s", destest.Script(transfer(x, &ops[i], i, 0, 1<<20), finishAt(&last)))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	svc := prof.MsgServiceTime(1 << 20)
	want := float64(n-1) * svc
	if math.Abs(last-want)/want > 1e-9 {
		t.Fatalf("incast completed at %g, want %g (destination port serialises)", last, want)
	}
}

func TestCrossbarSenderSerializes(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	x := NewCrossbar(k, prof, 4)
	var last float64
	ops := make([]TransferOp, 4)
	for i := 1; i < 4; i++ {
		// One source, distinct destinations.
		k.Spawn("m", destest.Script(transfer(x, &ops[i], 0, i, 1<<20), finishAt(&last)))
	}
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	svc := prof.MsgServiceTime(1 << 20)
	if math.Abs(last-3*svc)/(3*svc) > 1e-9 {
		t.Fatalf("one-to-many completed at %g, want %g (egress serialises)", last, 3*svc)
	}
}

func TestCrossbarStats(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	x := NewCrossbar(k, prof, 2)
	var op TransferOp
	k.Spawn("m", destest.Script(destest.Repeat(2, transfer(x, &op, 0, 1, 1<<20))))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	s := x.Stats()
	if s.Served != 2 {
		t.Fatalf("served %d", s.Served)
	}
	if s.MeanWait != 0 {
		t.Fatalf("sequential transfers from one proc should not wait: %g", s.MeanWait)
	}
	if got := x.ServiceTime(1 << 20); got != prof.MsgServiceTime(1<<20) {
		t.Fatalf("ServiceTime = %g", got)
	}
}

func TestCrossbarInvalidPortPanics(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	x := NewCrossbar(k, prof, 2)
	var op TransferOp
	k.Spawn("m", destest.Script(transfer(x, &op, 0, 7, 8)))
	if err := k.Run(math.Inf(1)); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestNewSelectsTopology(t *testing.T) {
	prof := machine.XeonE5()
	k := des.NewKernel()
	if _, ok := New(k, prof, 4).(*Switch); !ok {
		t.Fatal("default topology should be the shared switch")
	}
	prof.Topology = machine.TopologyCrossbar
	if _, ok := New(k, prof, 4).(*Crossbar); !ok {
		t.Fatal("crossbar topology not honoured")
	}
}
