package exec

import (
	"testing"

	"hybridperf/internal/dvfs"
	"hybridperf/internal/machine"
)

// governorFactories builds one per-rank governor factory per policy for a
// run starting at cfg.Freq on prof's level grid. The phase-predictive
// governor starts unseeded here — pure online learning — so the test also
// exercises the ObservePhases hook.
func governorFactories(t *testing.T, prof *machine.Profile, cfg machine.Config) map[string]func(int) dvfs.Governor {
	t.Helper()
	var levels []float64
	for _, f := range prof.Frequencies {
		if f <= cfg.Freq {
			levels = append(levels, f)
		}
	}
	return map[string]func(int) dvfs.Governor{
		dvfs.PolicyFixed: func(int) dvfs.Governor { return dvfs.Fixed(cfg.Freq) },
		dvfs.PolicySlack: func(int) dvfs.Governor {
			g, err := dvfs.NewInterNodeSlack(levels, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		dvfs.PolicyPhase: func(int) dvfs.Governor {
			g, err := dvfs.NewPhasePredictive(levels, 0, dvfs.PhaseSample{}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		// The schedule recorder must be transparent: wrapping the slack
		// governor keeps the run on the same trajectory as "slack" above.
		"slack-recorded": func(int) dvfs.Governor {
			g, err := dvfs.NewInterNodeSlack(levels, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return &dvfs.ScheduleRecorder{G: g}
		},
	}
}

// TestGovernorEngineDifferential pins the governed paths on every golden
// configuration: every policy's run is deterministic (a rerun is bit for
// bit identical, trace and engine counters included); the schedule
// recorder is transparent ("slack-recorded" equals "slack"); and a Fixed
// governor at the starting frequency equals the ungoverned run — the
// invariant characterize.Advise relies on to derive the "fixed" outcome
// from its baseline instead of simulating it.
func TestGovernorEngineDifferential(t *testing.T) {
	for name, req := range goldenCases() {
		factories := governorFactories(t, req.Prof, req.Cfg)
		for policy, factory := range factories {
			req := req
			req.Governor = factory
			req.Trace = true
			req.Metrics = true
			t.Run(name+"/"+policy, func(t *testing.T) {
				res, err := Run(req)
				if err != nil {
					t.Fatal(err)
				}
				again, err := Run(req)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRun(t, again, res)
				var want *Result
				switch policy {
				case "slack-recorded":
					slack := req
					slack.Governor = factories[dvfs.PolicySlack]
					want, err = Run(slack)
				case dvfs.PolicyFixed:
					plain := req
					plain.Governor = nil
					want, err = Run(plain)
				default:
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				assertSameRun(t, res, want)
			})
		}
	}
}
