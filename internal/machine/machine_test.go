package machine

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuiltinProfilesValid(t *testing.T) {
	for name, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	x := XeonE5()
	if x.MaxNodes != 8 || x.CoresPerNode != 8 || len(x.Frequencies) != 3 {
		t.Errorf("Xeon shape: %d nodes, %d cores, %d levels", x.MaxNodes, x.CoresPerNode, len(x.Frequencies))
	}
	if x.FMin() != 1.2e9 || x.FMax() != 1.8e9 {
		t.Errorf("Xeon DVFS range %g-%g", x.FMin(), x.FMax())
	}
	if x.LinkBandwidth != 1e9 {
		t.Errorf("Xeon link %g, want 1 Gbps", x.LinkBandwidth)
	}
	a := ARMCortexA9()
	if a.MaxNodes != 8 || a.CoresPerNode != 4 || len(a.Frequencies) != 5 {
		t.Errorf("ARM shape: %d nodes, %d cores, %d levels", a.MaxNodes, a.CoresPerNode, len(a.Frequencies))
	}
	if a.FMin() != 0.2e9 || a.FMax() != 1.4e9 {
		t.Errorf("ARM DVFS range %g-%g", a.FMin(), a.FMax())
	}
	if a.LinkBandwidth != 100e6 {
		t.Errorf("ARM link %g, want 100 Mbps", a.LinkBandwidth)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("xeon"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("arm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("riscv"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestByNameMatchesCatalogue: each lookup builds a fresh copy equal to
// the catalogue's entry, and an unknown name keeps its exact error.
func TestByNameMatchesCatalogue(t *testing.T) {
	for name, want := range Profiles() {
		got, err := ByName(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%s) = %+v, %v; catalogue has %+v", name, got, err, want)
		}
		got.Frequencies[0] = -1
		got.Name = "mutated"
		if again, _ := ByName(name); !reflect.DeepEqual(again, want) {
			t.Fatalf("ByName(%s) returned shared state: %+v", name, again)
		}
	}
	_, err := ByName("riscv")
	if want := `machine: unknown profile "riscv" (want xeon or arm)`; err == nil || err.Error() != want {
		t.Fatalf("unknown-name error %v, want %q", err, want)
	}
}

func TestPowerCurveMonotone(t *testing.T) {
	for _, p := range []*Profile{XeonE5(), ARMCortexA9()} {
		prev := 0.0
		for _, f := range p.Frequencies {
			w := p.PCoreAct.At(f)
			if w <= prev {
				t.Errorf("%s: active power not increasing at %.1f GHz (%g <= %g)", p.Name, f/1e9, w, prev)
			}
			prev = w
			if s := p.PCoreStall(f); s >= w || s <= 0 {
				t.Errorf("%s: stall power %g not in (0, active %g)", p.Name, s, w)
			}
		}
	}
}

func TestPowerCurveNoFRef(t *testing.T) {
	pc := PowerCurve{Static: 3}
	if pc.At(1e9) != 3 {
		t.Fatalf("zero-FRef curve should be static-only, got %g", pc.At(1e9))
	}
}

func TestEffectiveNetBandwidthSaturates(t *testing.T) {
	p := ARMCortexA9()
	peak := p.NetEfficiency * p.LinkBandwidth / 8
	small := p.EffectiveNetBandwidth(64)
	large := p.EffectiveNetBandwidth(16 << 20)
	if small >= large {
		t.Fatalf("effective bandwidth not increasing: %g >= %g", small, large)
	}
	if large > peak {
		t.Fatalf("effective bandwidth %g exceeds peak %g", large, peak)
	}
	if large < peak*0.99 {
		t.Fatalf("large-message bandwidth %g should be close to peak %g", large, peak)
	}
	if got := p.EffectiveNetBandwidth(0); got != peak {
		t.Fatalf("zero-size bandwidth = %g, want peak", got)
	}
}

// Property: message service time is strictly increasing in size.
func TestMsgServiceTimeMonotone(t *testing.T) {
	p := XeonE5()
	f := func(a, b uint32) bool {
		sa, sb := float64(a%(64<<20)), float64(b%(64<<20))
		if sa > sb {
			sa, sb = sb, sa
		}
		return p.MsgServiceTime(sa) <= p.MsgServiceTime(sb)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasFrequency(t *testing.T) {
	p := XeonE5()
	if !p.HasFrequency(1.5e9) {
		t.Error("1.5 GHz should be a Xeon level")
	}
	if p.HasFrequency(1.6e9) {
		t.Error("1.6 GHz is not a Xeon level")
	}
}

func TestValidateConfig(t *testing.T) {
	p := XeonE5()
	good := Config{Nodes: 8, Cores: 8, Freq: 1.8e9}
	if err := p.ValidateConfig(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Nodes: 0, Cores: 1, Freq: 1.2e9},
		{Nodes: 1, Cores: 0, Freq: 1.2e9},
		{Nodes: 1, Cores: 9, Freq: 1.2e9},
		{Nodes: 1, Cores: 1, Freq: 1.3e9},
		{Nodes: 9, Cores: 1, Freq: 1.2e9}, // beyond the physical cluster
	}
	for _, cfg := range bad {
		if err := p.ValidateConfig(cfg); err == nil {
			t.Errorf("invalid config %v accepted", cfg)
		}
	}
	// The model may extrapolate nodes.
	if err := p.ValidateModelConfig(Config{Nodes: 256, Cores: 8, Freq: 1.8e9}); err != nil {
		t.Errorf("model config with 256 nodes rejected: %v", err)
	}
}

func TestProfileValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.MaxNodes = 0 },
		func(p *Profile) { p.CoresPerNode = 0 },
		func(p *Profile) { p.Frequencies = nil },
		func(p *Profile) { p.Frequencies = []float64{2e9, 1e9} },
		func(p *Profile) { p.Frequencies = []float64{-1, 1e9} },
		func(p *Profile) { p.CyclesPerWork = 0 },
		func(p *Profile) { p.MemBandwidth = 0 },
		func(p *Profile) { p.MemCoreBandwidth = 0 },
		func(p *Profile) { p.MemCoreBandwidth = p.MemBandwidth * 2 },
		func(p *Profile) { p.MemTrafficFactor = 0 },
		func(p *Profile) { p.MemBurstBytes = 0 },
		func(p *Profile) { p.LinkBandwidth = 0 },
		func(p *Profile) { p.NetEfficiency = 0 },
		func(p *Profile) { p.NetEfficiency = 1.5 },
		func(p *Profile) { p.PSysIdle = -1 },
	}
	for i, mutate := range mutations {
		p := XeonE5()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Nodes: 4, Cores: 8, Freq: 1.8e9}
	if got := cfg.String(); got != "(4,8,1.8)" {
		t.Fatalf("String() = %q", got)
	}
	if math.Abs(cfg.GHz()-1.8) > 1e-12 {
		t.Fatalf("GHz() = %g", cfg.GHz())
	}
	cf := CF{Cores: 2, Freq: 0.5e9}
	if !strings.Contains(cf.String(), "0.5GHz") {
		t.Fatalf("CF.String() = %q", cf.String())
	}
}

func TestTopologyValidation(t *testing.T) {
	p := XeonE5()
	if p.Topology != "" {
		t.Fatalf("built-in profile topology %q, want default shared", p.Topology)
	}
	p.Topology = TopologyCrossbar
	if err := p.Validate(); err != nil {
		t.Fatalf("crossbar rejected: %v", err)
	}
	p.Topology = Topology("torus")
	if err := p.Validate(); err == nil {
		t.Fatal("unknown topology accepted")
	}
}
