package netpipe

import (
	"testing"

	"hybridperf/internal/machine"
)

// TestCharacterizePinned pins the ping-pong sweep and the fitted service
// model of both shipped profiles bit for bit (hex floats), so any change
// to event order in the simulated transfers fails here first.
func TestCharacterizePinned(t *testing.T) {
	type point struct{ bytes, lat, thr float64 }
	cases := []struct {
		prof           *machine.Profile
		overhead, peak float64
		points         []point
	}{
		{
			prof:     machine.XeonE5(),
			overhead: 0x1.01914ad874f5cp-13, peak: 0x1.ad2748p+26,
			points: []point{
				{1, 0x1.019610866e52p-13, 0x1.fcd8df353ece1p+12},
				{64 << 10, 0x1.71cfd10e2506p-11, 0x1.626dcf479222ap+26},
				{16 << 20, 0x1.31abe2aabde78p-03, 0x1.accce0823eaa7p+26},
			},
		},
		{
			prof:     machine.ARMCortexA9(),
			overhead: 0x1.d1a93411975c3p-12, peak: 0x1.5752ap+23,
			points: []point{
				{1, 0x1.d1c1107776413p-12, 0x1.196b39d6e9b7p+11},
				{64 << 10, 0x1.9ae0f12f2333p-08, 0x1.3f010f511596ap+23},
				{16 << 20, 0x1.7de378814ad65p+00, 0x1.573875d62458fp+23},
			},
		},
	}
	for _, tc := range cases {
		pts, nm, err := Characterize(tc.prof)
		if err != nil {
			t.Fatal(err)
		}
		if nm.Overhead != tc.overhead || nm.Peak != tc.peak {
			t.Errorf("%s: fit (%x, %x), want (%x, %x)", tc.prof.Name, nm.Overhead, nm.Peak, tc.overhead, tc.peak)
		}
		byBytes := make(map[float64]Point, len(pts))
		for _, p := range pts {
			byBytes[p.Bytes] = p
		}
		for _, want := range tc.points {
			got, ok := byBytes[want.bytes]
			if !ok {
				t.Fatalf("%s: no point at %g B", tc.prof.Name, want.bytes)
			}
			if got.Latency != want.lat || got.Throughput != want.thr {
				t.Errorf("%s: %g B = (%x, %x), want (%x, %x)", tc.prof.Name, want.bytes,
					got.Latency, got.Throughput, want.lat, want.thr)
			}
		}
	}
}
