// Command hybridsim runs one direct measurement of a hybrid program on the
// simulated cluster and reports time, energy, counters and the mpiP-style
// communication profile — the "measured" side of the paper's validation.
//
// Usage:
//
//	hybridsim -system xeon -program SP -class A -n 4 -c 8 -f 1.8 -seed 1
//	hybridsim -program LB -n 4 -c 4 -timeline -metrics
//	hybridsim -program SP -n 8 -c 8 -trace out.json   # chrome://tracing
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hybridperf"
	"hybridperf/internal/exec"
	"hybridperf/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hybridsim: ")
	var (
		system   = flag.String("system", "xeon", "cluster profile: xeon or arm")
		program  = flag.String("program", "SP", "program: LU, SP, BT, CP or LB")
		class    = flag.String("class", "S", "input class: T, S, A or C")
		n        = flag.Int("n", 2, "number of nodes")
		c        = flag.Int("c", 1, "cores per node")
		fGHz     = flag.Float64("f", 0, "core frequency [GHz]; 0 = fmax")
		seed     = flag.Int64("seed", 1, "simulation seed")
		timeline = flag.Bool("timeline", false, "render a per-rank phase Gantt chart")
		traceOut = flag.String("trace", "", "write the phase timeline as a Chrome-trace JSON file")
		showMx   = flag.Bool("metrics", false, "report engine instrumentation counters")
	)
	flag.Parse()

	sys, err := hybridperf.SystemByName(*system)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := hybridperf.ProgramByName(*program)
	if err != nil {
		log.Fatal(err)
	}
	f := *fGHz * 1e9
	if f == 0 {
		f = sys.FMax()
	}
	cfg := hybridperf.Config{Nodes: *n, Cores: *c, Freq: f}
	res, err := exec.Run(exec.Request{
		Prof: sys, Spec: prog, Class: hybridperf.Class(*class), Cfg: cfg,
		Seed: *seed, Trace: *timeline || *traceOut != "", Metrics: *showMx,
	})
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	fmt.Fprintf(w, "program      %s (%s, %s)\n", prog.Name, prog.Suite, prog.Lang)
	fmt.Fprintf(w, "system       %s\n", sys.Name)
	fmt.Fprintf(w, "config       %v  class %s\n", cfg, *class)
	fmt.Fprintf(w, "time         %.2f s\n", res.Time)
	fmt.Fprintf(w, "energy       %.3f kJ metered (%.3f kJ integrated)\n", res.MeasuredEnergy/1e3, res.Energy.Total()/1e3)
	fmt.Fprintf(w, "  cpu %.3f  mem %.3f  net %.3f  idle %.3f kJ\n",
		res.Energy.CPU/1e3, res.Energy.Mem/1e3, res.Energy.Net/1e3, res.Energy.Idle/1e3)
	t := res.Totals
	fmt.Fprintf(w, "counters     w=%.3g  b=%.3g  m=%.3g cycles, U=%.3f\n",
		t.WorkCycles, t.BStallCycles, t.MemStallCycles, res.Utilization)
	if res.Comm.TotalMsgs > 0 {
		fmt.Fprintf(w, "mpi          eta=%.0f msgs/rank  nu=%.0f B/msg  switch rho=%.2f  mean wait=%.4f s\n",
			res.Comm.MsgsPerRank, res.Comm.BytesPerMsg, res.Comm.SwitchStats.Utilization, res.Comm.SwitchStats.MeanWait)
	}
	// Deterministic by design: no wall-clock here, so two invocations with
	// the same seed stay byte-diffable.
	fmt.Fprintf(w, "engine       %d events on %d procs\n", res.Engine.Events, res.Engine.Procs)
	if *timeline || *traceOut != "" {
		fmt.Fprintf(w, "measured UCR %.3f (from %d trace events)\n", res.MeasuredUCR, len(res.Trace))
	}
	if *showMx && res.Metrics != nil {
		fmt.Fprintf(w, "\nengine metrics\n%s", res.Metrics.Engine)
	}
	if *timeline {
		fmt.Fprintf(w, "\n%s", trace.Gantt(res.Trace, 100))
	}
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(fh, res.Trace); err != nil {
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "wrote %s (%d events; open in chrome://tracing or Perfetto)\n", *traceOut, len(res.Trace))
	}
}
