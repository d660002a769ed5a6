// Command bench is the repository benchmark. It builds hybridperfd and
// hybridperf-gw from the checkout, boots them as child processes with
// their shipped default flags, drives one seeded workload against them
// over loopback HTTP, checks a seeded sample of the answers against the
// model computed in-process, and prints every metric as
// "<workload> <metric> <value> <unit>" followed by one JSON summary line.
//
// Run it from the repository root through bench/run.sh, which keeps the
// build cache and every output under .bench_build/:
//
//	bash bench/run.sh -workload serve-fresh -seed 1 -seconds 18
//	bash bench/run.sh -workload all -seed 2 -trace 1
//
// Without -trace (or with -trace 0) it prints the end-to-end metrics,
// scaled to the nominal host by the host speed references of hostref.go;
// with -trace 1 it replays the same seeded inputs, records spans around
// every call into the layers and prints the per-layer metrics instead.
// See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported quantity; BENCHMARK.json lists the same names
// and units with their direction and bound.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"capacity_rps", "req/s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metric{
	{"des.events", "count"},
	{"des.mpi_messages", "count"},
	{"des.ns_per_event", "ns"},
	{"exec.runs", "count"},
	{"exec.run_ms_p50", "ms"},
	{"characterize.campaign_ms", "ms"},
	{"characterize.campaigns", "count"},
	{"characterize.advise_ms_p50", "ms"},
	{"core.predict_ns_p50", "ns"},
	{"pareto.evaluate_us_p50", "us"},
	{"pareto.frontier_us_p50", "us"},
	{"telemetry.handler_us_p50", "us"},
	{"telemetry.allocs_per_req", "count"},
	{"telemetry.decode_pct", "%"},
	{"telemetry.cache_lookup_pct", "%"},
	{"telemetry.evaluate_pct", "%"},
	{"telemetry.render_pct", "%"},
	{"telemetry.unexplained_us", "us"},
	{"telemetry.cache_hit_ratio", "ratio"},
	{"telemetry.cache_evictions", "count"},
	{"telemetry.cache_collapsed", "count"},
	{"telemetry.rejected", "count"},
	{"telemetry.cancelled", "count"},
	{"http.loopback_us", "us"},
	{"gateway.hop_pct", "%"},
	{"gateway.fanout_per_req", "ratio"},
	{"gateway.fanout_errors", "count"},
	{"cluster.forwards", "count"},
	{"gen.lag_tail_ms", "ms"},
	{"gen.backlog_end", "count"},
	{"closed_p50_ms", "ms"},
	{"cpu_us_per_req", "us"},
	{"low_p50_ms", "ms"},
	{"high_p50_ms", "ms"},
	{"low_tail_ms", "ms"},
	{"high_tail_ms", "ms"},
	{"closed_tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed the request stream is drawn from")
		seconds = flag.Int("seconds", 18, "measured seconds, split evenly over the boots and their timed phases")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out     = flag.String("out", "", "also write the summary JSON to this file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed reports that a run completed with failed requests or checks;
// its summary was still printed.
var errFailed = errors.New("failed requests or checks (see the # lines above)")

func run(name string, seed int64, seconds, traced int, out string) error {
	if seconds < timedPhases {
		return fmt.Errorf("-seconds %d: need at least %d", seconds, timedPhases)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traced)
	}
	var list []*workload
	if name == "all" {
		list = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		list = []*workload{w}
	}
	if _, err := os.Stat(filepath.Join("cmd", "hybridperfd")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	opt := options{
		seed:    seed,
		measure: time.Duration(seconds) * time.Second,
		warmup:  2 * time.Second,
		trace:   traced == 1,
		workDir: ".bench_build",
	}
	if err := os.MkdirAll(filepath.Join(opt.workDir, "logs"), 0o755); err != nil {
		return err
	}
	// The in-process reference runs the same default engine the daemons do.
	os.Unsetenv("HYBRIDPERF_ENGINE")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := buildDaemons(ctx, filepath.Join(opt.workDir, "bin")); err != nil {
		return err
	}
	cat, err := newCatalogue()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range list {
		res, err := newRunner(ctx, opt, w, cat).run()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !report(os.Stdout, w, opt, res, out) {
			failed = true
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a run's metrics and summary and reports whether it was
// correct.
func report(w io.Writer, wl *workload, opt options, res *result, out string) bool {
	fmt.Fprintf(w, "# %s seed=%d measured=%v trace=%v commit=%s gomaxprocs=%d nproc=%d\n",
		wl.name, opt.seed, opt.measure, opt.trace, commit(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, s := range res.info {
		fmt.Fprintf(w, "# %s %s\n", wl.name, s)
	}
	for _, s := range res.invalid {
		fmt.Fprintf(w, "# %s INVALID %s\n", wl.name, s)
	}
	list := endToEnd
	if opt.trace {
		list = perLayer
	}
	sum := summary{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := res.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s not measured", m.name)
			v = 0
		}
		fmt.Fprintf(w, "%s %s %s %s\n", wl.name, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		sum.Metrics[m.name] = metricValue{v, m.unit}
	}
	sum.Failed = res.failed
	for _, s := range res.failures {
		fmt.Fprintf(w, "# %s FAILED %s\n", wl.name, s)
	}
	if res.attempted > 0 {
		fmt.Fprintf(w, "# %s error_rate %g (%d of %d)\n", wl.name, float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	}
	sum.Correct = res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(sum)
	if err != nil {
		panic(err) // only finite floats and strings
	}
	fmt.Fprintf(w, "%s\n", line)
	if out != "" {
		if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing -out:", err)
			return false
		}
	}
	return sum.Correct
}

// commit is the VCS revision the benchmark was built from, when the
// checkout is a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
