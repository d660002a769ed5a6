package powerbench

import (
	"testing"

	"hybridperf/internal/machine"
)

// TestCharacterizePinned pins the power characterisation of both shipped
// profiles at seed 42, bit for bit. The values are hex floats so that an
// engine change which reorders a single event or noise draw shows up as a
// failure rather than as drift inside a tolerance.
func TestCharacterizePinned(t *testing.T) {
	type cell struct {
		cf          machine.CF
		spin, stall float64
	}
	cases := []struct {
		prof        *machine.Profile
		idle, pnet  float64
		pact, pstal map[float64]float64
		cells       []cell
	}{
		{
			prof: machine.XeonE5(),
			idle: 0x1.093f475080143p+06, pnet: 0x1.8f6b10de49ep+01,
			pact: map[float64]float64{
				1.2e9: 0x1.a92537cd2ecap+01, 1.5e9: 0x1.1e27ca617b354p+02, 1.8e9: 0x1.7abee587985fap+02,
			},
			pstal: map[float64]float64{
				1.2e9: 0x1.3c153a2e20754p+01, 1.5e9: 0x1.7568fe7bd6bc8p+01, 1.8e9: 0x1.ae967a7f67fbcp+01,
			},
			cells: []cell{
				{machine.CF{Cores: 1, Freq: 1.2e9}, 0x1.1dedcf0558892p+06, 0x1.2e037e6cf44ebp+06},
				{machine.CF{Cores: 8, Freq: 1.8e9}, 0x1.c69eba144c44p+06, 0x1.98e4e5f05a132p+06},
			},
		},
		{
			prof: machine.ARMCortexA9(),
			idle: 0x1.2194fb9ccd4e2p+01, pnet: 0x1.2a5ece6d837a8p+00,
			pact: map[float64]float64{
				0.2e9: 0x1.6b5009388462p-05, 0.5e9: 0x1.4aefe4ede09a8p-02, 0.8e9: 0x1.8663347246f36p-02,
				1.1e9: 0x1.5f78d622de47p-01, 1.4e9: 0x1.07e80f3ce39a3p+00,
			},
			pstal: map[float64]float64{
				0.2e9: 0x1.0895db8602eb5p-02, 0.5e9: 0x1.6df3e4a5ec039p-02, 0.8e9: 0x1.129040d1a48edp-02,
				1.1e9: 0x1.cb7b17d43c459p-02, 1.4e9: 0x1.1aef8a6d4a4fep-01,
			},
			cells: []cell{
				{machine.CF{Cores: 1, Freq: 0.2e9}, 0x1.65b9cebf7b96fp+01, 0x1.575d9e5e9078cp+01},
				{machine.CF{Cores: 4, Freq: 1.4e9}, 0x1.98b28d0b4a414p+02, 0x1.4b0f0fd1d89bdp+02},
			},
		},
	}
	for _, tc := range cases {
		res, err := Characterize(tc.prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Model
		if m.PSysIdle != tc.idle || res.IdleWatts != tc.idle {
			t.Errorf("%s: PSysIdle = %x, want %x", tc.prof.Name, m.PSysIdle, tc.idle)
		}
		if m.PNet != tc.pnet {
			t.Errorf("%s: PNet = %x, want %x", tc.prof.Name, m.PNet, tc.pnet)
		}
		if len(m.PAct) != len(tc.pact) || len(m.PStall) != len(tc.pstal) {
			t.Fatalf("%s: %d/%d frequencies, want %d", tc.prof.Name, len(m.PAct), len(m.PStall), len(tc.pact))
		}
		for f, want := range tc.pact {
			if got := m.PAct[f]; got != want {
				t.Errorf("%s: PAct(%g) = %x, want %x", tc.prof.Name, f, got, want)
			}
			if got := m.PStall[f]; got != tc.pstal[f] {
				t.Errorf("%s: PStall(%g) = %x, want %x", tc.prof.Name, f, got, tc.pstal[f])
			}
		}
		for _, c := range tc.cells {
			if got := res.SpinWatts[c.cf]; got != c.spin {
				t.Errorf("%s: SpinWatts%v = %x, want %x", tc.prof.Name, c.cf, got, c.spin)
			}
			if got := res.StallWatts[c.cf]; got != c.stall {
				t.Errorf("%s: StallWatts%v = %x, want %x", tc.prof.Name, c.cf, got, c.stall)
			}
		}
	}
}
