package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{1 << 40, HistBuckets - 1}, // overflow absorbs into the last bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var tally EngineSnapshot
	tally.ObserveMessage(0)
	tally.ObserveMessage(1)
	tally.ObserveMessage(300)
	s := tally.MsgBytes
	if s[0] != 2 || s[8] != 1 {
		t.Fatalf("snapshot %v", s)
	}
	str := HistString(s)
	if !strings.Contains(str, "[0,2):2") || !strings.Contains(str, "[256,512):1") {
		t.Fatalf("HistString = %q", str)
	}
	if HistString([HistBuckets]uint64{}) != "(empty)" {
		t.Fatal("empty histogram rendering")
	}
}

func TestQuantile(t *testing.T) {
	// 100 observations of 1 → every quantile lives in bucket 0 = [0,2).
	var s [HistBuckets]uint64
	s[bucketOf(1)] = 100
	if q := Quantile(s, 0.5); q <= 0 || q >= 2 {
		t.Fatalf("p50 of all-ones = %g, want inside [0,2)", q)
	}
	if Quantile([HistBuckets]uint64{}, 0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}

	// Uniform mass over [256,512) and [512,1024): the median sits at the
	// bucket boundary, p25/p75 at the bucket midpoints.
	var u [HistBuckets]uint64
	u[8], u[9] = 100, 100
	if q := Quantile(u, 0.5); q != 512 {
		t.Fatalf("p50 = %g, want 512 (boundary exact)", q)
	}
	if q := Quantile(u, 0.25); q != 384 {
		t.Fatalf("p25 = %g, want 384 (mid of [256,512))", q)
	}
	if q := Quantile(u, 1.0); q != 1024 {
		t.Fatalf("p100 = %g, want 1024 (top of [512,1024))", q)
	}
	// Quantiles are monotone in q, and out-of-range q clamps.
	prev := 0.0
	for _, q := range []float64{-1, 0, 0.1, 0.5, 0.9, 0.99, 1, 2} {
		v := Quantile(u, q)
		if v < prev {
			t.Fatalf("Quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}
	// Overflow bucket stays finite.
	var o [HistBuckets]uint64
	o[HistBuckets-1] = 5
	if q := Quantile(o, 0.99); math.IsInf(q, 0) || q <= 0 {
		t.Fatalf("overflow-bucket quantile = %g, want finite positive", q)
	}
}

func TestEngineSnapshotSub(t *testing.T) {
	a := EngineSnapshot{Events: 100, PoolHits: 40, HeapHighWater: 9, Messages: 12}
	a.MsgBytes[3] = 7
	b := EngineSnapshot{Events: 30, PoolHits: 50, HeapHighWater: 4, Messages: 2}
	b.MsgBytes[3] = 2
	d := a.Sub(b)
	if d.Events != 70 || d.Messages != 10 || d.MsgBytes[3] != 5 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if d.PoolHits != 0 {
		t.Fatalf("crossed counters must saturate at 0, got %d", d.PoolHits)
	}
	if d.HeapHighWater != 9 {
		t.Fatalf("high water keeps the current value, got %d", d.HeapHighWater)
	}
}

func TestEngineSnapshotAdd(t *testing.T) {
	a := EngineSnapshot{Events: 10, PoolHits: 4, HeapHighWater: 7, Messages: 2}
	b := EngineSnapshot{Events: 5, PoolHits: 1, HeapHighWater: 3, Messages: 8}
	b.MsgBytes[2] = 8
	a.Add(b)
	if a.Events != 15 || a.PoolHits != 5 || a.Messages != 10 {
		t.Fatalf("sums wrong: %+v", a)
	}
	if a.HeapHighWater != 7 {
		t.Fatalf("high water should take the max, got %d", a.HeapHighWater)
	}
	if a.MsgBytes[2] != 8 {
		t.Fatalf("histogram buckets must sum: %v", a.MsgBytes)
	}
}

// TestEngineSnapshotObserve: the kernel-local hot-path hooks count into
// the plain tally with the Engine's histogram bucketing.
func TestEngineSnapshotObserve(t *testing.T) {
	var s EngineSnapshot
	for _, d := range []uint64{3, 9, 2} {
		s.ObserveHeap(d)
	}
	s.ObserveMessage(300)
	s.ObserveMessage(1)
	if s.HeapHighWater != 9 {
		t.Fatalf("high water = %d, want 9", s.HeapHighWater)
	}
	var want [HistBuckets]uint64
	want[0], want[8] = 1, 1
	if s.Messages != 2 || s.MsgBytes != want {
		t.Fatalf("messages %d, buckets %v, want 2 and %v", s.Messages, s.MsgBytes, want)
	}
}

func TestEngineSnapshotString(t *testing.T) {
	var tally EngineSnapshot
	tally.Events = 3
	tally.ObserveMessage(100)
	var e Engine
	e.Add(tally)
	s := e.Snapshot().String()
	for _, want := range []string{"3 dispatched", "1 messages", "[64,128):1", "p50=", "p95=", "p99="} {
		if !strings.Contains(s, want) {
			t.Fatalf("snapshot string lacks %q:\n%s", want, s)
		}
	}
}

// An Engine must tolerate concurrent publishers: every run of a parallel
// sweep publishes its tally into one shared Engine, and the Engine ends up
// holding exactly the sum (high water: the maximum) of the tallies.
func TestEngineConcurrentWriters(t *testing.T) {
	e := NewEngine()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var tally EngineSnapshot
				tally.Events = 1
				tally.ObserveHeap(uint64(w*perWorker + i))
				tally.ObserveMessage(uint64(i))
				e.Add(tally)
			}
		}(w)
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Events != workers*perWorker || s.Messages != workers*perWorker {
		t.Fatalf("events = %d, messages = %d, want %d", s.Events, s.Messages, workers*perWorker)
	}
	if s.HeapHighWater != workers*perWorker-1 {
		t.Fatalf("high water = %d", s.HeapHighWater)
	}
	var total uint64
	for _, n := range s.MsgBytes {
		total += n
	}
	if total != workers*perWorker {
		t.Fatalf("histogram total = %d", total)
	}
}

// TestEngineSnapshotWholeTallies: a Snapshot taken while goroutines
// publish never sees a tally partly applied — every snapshot keeps the
// per-tally invariants Events = SelfDispatches + SchedulerDispatches and
// sum(MsgBytes) = Messages.
func TestEngineSnapshotWholeTallies(t *testing.T) {
	e := NewEngine()
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tally := EngineSnapshot{Events: 3, SelfDispatches: 1, SchedulerDispatches: 2}
				tally.ObserveMessage(uint64(w*i + 1))
				tally.ObserveMessage(1 << 20)
				e.Add(tally)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(s EngineSnapshot) {
		t.Helper()
		if s.Events != s.SelfDispatches+s.SchedulerDispatches {
			t.Fatalf("torn snapshot: events %d != %d self + %d scheduler",
				s.Events, s.SelfDispatches, s.SchedulerDispatches)
		}
		var total uint64
		for _, n := range s.MsgBytes {
			total += n
		}
		if total != s.Messages {
			t.Fatalf("torn snapshot: histogram holds %d messages, counter %d", total, s.Messages)
		}
	}
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			check(e.Snapshot())
		}
	}
	s := e.Snapshot()
	check(s)
	if s.Events != 3*writers*perWriter {
		t.Fatalf("events = %d, want %d", s.Events, 3*writers*perWriter)
	}
}

// TestEngineAddMatchesSnapshotAdd: publishing tallies into an Engine
// aggregates exactly as summing the snapshots does.
func TestEngineAddMatchesSnapshotAdd(t *testing.T) {
	a := EngineSnapshot{Events: 10, SelfDispatches: 3, SchedulerDispatches: 7,
		Lookaheads: 5, HeapHighWater: 7, PoolHits: 3, PoolSpawns: 4, Regions: 6}
	a.ObserveMessage(4096)
	b := EngineSnapshot{Events: 5, SchedulerDispatches: 5, HeapHighWater: 9, Regions: 1}
	b.ObserveMessage(12)
	b.ObserveMessage(4000)
	var e Engine
	e.Add(a)
	e.Add(b)
	var want EngineSnapshot
	want.Add(a)
	want.Add(b)
	if got := e.Snapshot(); got != want {
		t.Fatalf("Engine.Add:\n got  %+v\n want %+v", got, want)
	}
}
