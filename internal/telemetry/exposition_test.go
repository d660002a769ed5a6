package telemetry

import (
	"strings"
	"testing"

	"hybridperf/internal/metrics"
)

// parseExposition is a minimal parser for the Prometheus text format used
// by the golden tests: it returns the declared TYPE per family and the
// value of every sample line keyed by "name{labels}".
func parseExposition(t *testing.T, text string) (types map[string]string, samples map[string]string) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if prev, dup := types[fields[2]]; dup && prev != fields[3] {
				t.Fatalf("family %s declared as both %s and %s", fields[2], prev, fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}
	return types, samples
}

// familyOf strips the histogram sample suffixes and label set from a
// sample key, yielding the family name its TYPE line must declare.
func familyOf(key string) string {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suf)
	}
	return name
}

func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	req := r.Counter("test_requests_total", "Requests.", "route", "code")
	inflight := r.Gauge("test_in_flight", "In flight.")
	dur := r.Histogram("test_duration_seconds", "Latency.", []float64{0.1, 1, 10}, "route")

	req.With("/a", "200").Add(3)
	req.With("/b", "500").Inc()
	inflight.With().Set(2)
	dur.With("/a").Observe(0.05)
	dur.With("/a").Observe(0.5)
	dur.With("/a").Observe(99) // +Inf bucket

	var b strings.Builder
	r.WriteText(&b)
	text := b.String()
	types, samples := parseExposition(t, text)

	wantTypes := map[string]string{
		"test_requests_total":   "counter",
		"test_in_flight":        "gauge",
		"test_duration_seconds": "histogram",
	}
	for name, kind := range wantTypes {
		if types[name] != kind {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], kind)
		}
	}
	wantSamples := map[string]string{
		`test_requests_total{route="/a",code="200"}`: "3",
		`test_requests_total{route="/b",code="500"}`: "1",
		`test_in_flight`: "2",
		`test_duration_seconds_bucket{route="/a",le="0.1"}`:  "1",
		`test_duration_seconds_bucket{route="/a",le="1"}`:    "2",
		`test_duration_seconds_bucket{route="/a",le="10"}`:   "2",
		`test_duration_seconds_bucket{route="/a",le="+Inf"}`: "3",
		`test_duration_seconds_count{route="/a"}`:            "3",
	}
	for key, want := range wantSamples {
		if samples[key] != want {
			t.Errorf("sample %s = %q, want %q\nfull exposition:\n%s", key, samples[key], want, text)
		}
	}
	// Every sample's family must have a TYPE declaration.
	for key := range samples {
		if _, ok := types[familyOf(key)]; !ok {
			t.Errorf("sample %s has no TYPE declaration", key)
		}
	}

	// Scrapes are deterministic: two renders are byte-identical.
	var b2 strings.Builder
	r.WriteText(&b2)
	if b2.String() != text {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_esc_total", "Escaping.", "v")
	c.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WriteText(&b)
	want := `test_esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped sample %s missing from:\n%s", want, b.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate family registration")
		}
	}()
	r.Gauge("dup_total", "Second.")
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{bounds: []float64{1, 2, 4}, counts: make([]uint64, 4)}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
	// 100 observations uniform in (1,2]: p50 interpolates to the bucket
	// midpoint 1.5, p100 to the upper edge 2.
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("p50 = %g, want 1.5", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("p100 = %g, want 2", got)
	}
	// An observation beyond the last bound lands in +Inf and quantiles
	// clamp to the largest finite edge instead of inventing a value.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("p100 with +Inf tail = %g, want clamp to 4", got)
	}
	// Quantiles never decrease in q.
	prev := 0.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%g gives %g < %g", q, v, prev)
		}
		prev = v
	}
}

func TestWriteEngineText(t *testing.T) {
	var s metrics.EngineSnapshot
	s.Events = 100
	s.Messages = 7
	s.HeapHighWater = 8
	s.MsgBytes[0] = 3 // [0,2)
	s.MsgBytes[3] = 4 // [8,16)

	var b strings.Builder
	WriteEngineText(&b, s)
	types, samples := parseExposition(t, b.String())

	if types["hybridperf_engine_events_total"] != "counter" {
		t.Errorf("engine events TYPE = %q", types["hybridperf_engine_events_total"])
	}
	if types["hybridperf_engine_heap_high_water"] != "gauge" {
		t.Errorf("heap high water TYPE = %q", types["hybridperf_engine_heap_high_water"])
	}
	if types["hybridperf_engine_mpi_msg_bytes"] != "histogram" {
		t.Errorf("msg bytes TYPE = %q", types["hybridperf_engine_mpi_msg_bytes"])
	}
	if samples["hybridperf_engine_events_total"] != "100" {
		t.Errorf("events = %q, want 100", samples["hybridperf_engine_events_total"])
	}
	// Buckets are cumulative: le="2" sees the 3 small messages, le="16"
	// and +Inf see all 7.
	if got := samples[`hybridperf_engine_mpi_msg_bytes_bucket{le="2"}`]; got != "3" {
		t.Errorf(`bucket le=2 = %q, want 3`, got)
	}
	if got := samples[`hybridperf_engine_mpi_msg_bytes_bucket{le="16"}`]; got != "7" {
		t.Errorf(`bucket le=16 = %q, want 7`, got)
	}
	if got := samples[`hybridperf_engine_mpi_msg_bytes_bucket{le="+Inf"}`]; got != "7" {
		t.Errorf(`bucket le=+Inf = %q, want 7`, got)
	}
	if got := samples["hybridperf_engine_mpi_msg_bytes_count"]; got != "7" {
		t.Errorf("count = %q, want 7", got)
	}
}
