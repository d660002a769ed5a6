package experiments

import (
	"math"
	"testing"

	"hybridperf/internal/machine"
	"hybridperf/internal/workload"
)

// TestModelEquationsHoldOverSpace pins the paper's equations over the
// whole configuration space of all ten (system, program) models, where the
// goldens pin seven points. At every n in {1, 2, 4, 8, 64, 1024} (1024 is
// the sweep's node cap) and every characterised (c, f):
//
//   - T = TCPU + TwNet + TsNet + TMem (Eq. 1);
//   - E = ECPU + EMem + ENet + EIdle (Eqs. 8-12);
//   - every component is >= 0 and UCR is in (0, 1] (Eq. 13);
//   - E >= n * P_sys,idle * T, the cluster's idle floor;
//   - the switch utilisation NetRho is <= 1;
//   - T is non-increasing in f at fixed (n, c).
func TestModelEquationsHoldOverSpace(t *testing.T) {
	const rel = 1e-12 // summation-order slack, relative to the total
	nodes := []int{1, 2, 4, 8, 64, 1024}
	predictions := 0
	for _, prof := range []*machine.Profile{machine.XeonE5(), machine.ARMCortexA9()} {
		for _, spec := range workload.Programs() {
			_, model, err := fastRunner.characterization(prof, spec)
			if err != nil {
				t.Fatal(err)
			}
			S, err := spec.Iterations(workload.ClassA)
			if err != nil {
				t.Fatal(err)
			}
			pIdle := model.Inputs().Power.PSysIdle
			for _, n := range nodes {
				for c := 1; c <= prof.CoresPerNode; c++ {
					prevT := math.Inf(1)
					for _, f := range prof.Frequencies { // ascending
						cfg := machine.Config{Nodes: n, Cores: c, Freq: f}
						p, err := model.Predict(cfg, S)
						if err != nil {
							t.Fatalf("%s/%s %v: %v", prof.Name, spec.Name, cfg, err)
						}
						predictions++
						where := prof.Name + "/" + spec.Name + " " + cfg.String()
						for _, v := range []struct {
							name string
							x    float64
						}{{"TCPU", p.TCPU}, {"TwNet", p.TwNet}, {"TsNet", p.TsNet}, {"TMem", p.TMem},
							{"ECPU", p.ECPU}, {"EMem", p.EMem}, {"ENet", p.ENet}, {"EIdle", p.EIdle}} {
							if !(v.x >= 0) {
								t.Errorf("%s: %s = %g, want >= 0", where, v.name, v.x)
							}
						}
						if sum := p.TCPU + p.TwNet + p.TsNet + p.TMem; math.Abs(sum-p.T) > rel*p.T {
							t.Errorf("%s: T = %g, components sum to %g", where, p.T, sum)
						}
						if sum := p.ECPU + p.EMem + p.ENet + p.EIdle; math.Abs(sum-p.E) > rel*p.E {
							t.Errorf("%s: E = %g, components sum to %g", where, p.E, sum)
						}
						if !(p.UCR > 0 && p.UCR <= 1) {
							t.Errorf("%s: UCR = %g, want in (0, 1]", where, p.UCR)
						}
						if floor := float64(n) * pIdle * p.T; p.E < floor*(1-rel) {
							t.Errorf("%s: E = %g below the idle floor n*P_idle*T = %g", where, p.E, floor)
						}
						if p.NetRho > 1 {
							t.Errorf("%s: NetRho = %g, want <= 1", where, p.NetRho)
						}
						if p.T > prevT*(1+rel) {
							t.Errorf("%s: T = %g rose above %g at the next lower frequency", where, p.T, prevT)
						}
						prevT = p.T
					}
				}
			}
		}
	}
	t.Logf("%d predictions checked", predictions)
}
