package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hybridperf/internal/machine"
)

// TestValidateEngine: the legacy engine selector accepts only the empty
// string and the sequential engine; the removed goroutine engine gets an
// error that says so.
func TestValidateEngine(t *testing.T) {
	for _, ok := range []string{"", EngineName} {
		if err := ValidateEngine(ok); err != nil {
			t.Errorf("ValidateEngine(%q) = %v, want nil", ok, err)
		}
	}
	if err := ValidateEngine("goroutine"); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf(`ValidateEngine("goroutine") = %v, want an error naming the removal`, err)
	}
	for _, bad := range []string{"parallel", "Goroutine", "sequential "} {
		if err := ValidateEngine(bad); err == nil {
			t.Errorf("ValidateEngine(%q) accepted an unknown engine", bad)
		}
	}
}

// TestResultReportsEngine: the kernel's cost of producing a run is
// stamped on the result.
func TestResultReportsEngine(t *testing.T) {
	res, err := Run(xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Events == 0 || res.Engine.Procs < 2 {
		t.Fatalf("engine reported empty stats: %+v", res.Engine)
	}
}

// TestSequentialRunPreCancelledContext: a request whose deadline has
// already passed fails upfront with the deadline error.
func TestSequentialRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	req.Ctx = ctx
	if _, err := Run(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run() = %v, want context.DeadlineExceeded", err)
	}
}

// TestDefaultEngineFromEnvironment: $HYBRIDPERF_ENGINE, which once chose
// the default engine, selects nothing any more — a deployment that still
// sets it, to either former engine name or to garbage, runs the one
// engine with identical results instead of failing.
func TestDefaultEngineFromEnvironment(t *testing.T) {
	req := xeonReq(machine.Config{Nodes: 2, Cores: 2, Freq: 1.8e9})
	want, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"goroutine", "sequential", "warp-drive"} {
		t.Setenv("HYBRIDPERF_ENGINE", v)
		got, err := Run(req)
		if err != nil {
			t.Fatalf("HYBRIDPERF_ENGINE=%s: %v", v, err)
		}
		assertSameRun(t, got, want)
	}
}
