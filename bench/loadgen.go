package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks the calling thread in nanosleep(2). The runtime's own
// timers wake an idle process with millisecond granularity, which would
// release most sub-millisecond arrivals late; a spin loop would be
// precise but steal a CPU from the daemons.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR { // resume with the time left
	}
}

// outcome is what one request returned, as far as timing needs it; the
// response itself is kept by the caller's do function.
type outcome struct {
	err    error  // transport error, timeout or HTTP status >= 400
	cache  string // X-Response-Cache
	traced bool   // the request was part of the traced sample
}

// record is one request of a phase. In the open loop due is the
// scheduled send time and sent when the dispatcher released it; in the
// closed loop both equal start.
type record struct {
	i                     int
	due, sent, start, end time.Time
	outcome
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (r *record) latency() time.Duration { return r.end.Sub(r.due) }

// poissonDues returns the seeded arrival offsets of one boot's share of
// an open-loop phase.
func poissonDues(seed int64, phase, boot int, rate float64, window time.Duration) []time.Duration {
	r := newPRNG(seed, "arrivals-"+phaseNames[phase], boot)
	var dues []time.Duration
	for t := 0.0; ; {
		t += -math.Log(1-r.float()) / rate
		if t >= window.Seconds() {
			return dues
		}
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
}

// openLoop sends request i at offset dues[i] from its start over at most
// conns connections. Nothing is dropped: a request due while every
// connection is busy waits in the queue, and that wait counts in its
// latency.
func openLoop(clk clock, dues []time.Duration, conns int, do func(i int) outcome) []record {
	recs := make([]record, len(dues))
	queue := make(chan int, len(dues)) // one slot per send: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				rec := &recs[i]
				rec.start = clk.Now()
				rec.outcome = do(i)
				rec.end = clk.Now()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The dispatcher gets its own thread at a raised priority where
		// the OS allows it, so it wakes on time even while the daemons keep
		// every CPU busy. The thread is discarded when this goroutine exits
		// still locked to it.
		runtime.LockOSThread()
		syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -10) // best effort: gen.lag_tail_ms shows the result
		t0 := clk.Now()
		for i, off := range dues {
			due := t0.Add(off)
			if d := due.Sub(clk.Now()); d > 0 {
				clk.Sleep(d)
			}
			recs[i].i, recs[i].due, recs[i].sent = i, due, clk.Now()
			queue <- i
		}
		close(queue)
	}()
	wg.Wait()
	return recs
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one returns, until d has passed.
func closedLoop(clk clock, d time.Duration, conns int, do func(i int) outcome) []record {
	var next atomic.Int64
	deadline := clk.Now().Add(d)
	per := make([][]record, conns)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec := record{i: i, start: clk.Now()}
				rec.due, rec.sent = rec.start, rec.start
				rec.outcome = do(i)
				rec.end = clk.Now()
				per[w] = append(per[w], rec)
			}
		}(w)
	}
	wg.Wait()
	var recs []record
	for _, p := range per {
		recs = append(recs, p...)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i })
	return recs
}

// completedWithin counts the successful requests that ended in
// [from, from+d).
func completedWithin(recs []record, from time.Time, d time.Duration) int {
	n := 0
	for _, r := range recs {
		if r.err == nil && !r.end.Before(from) && r.end.Before(from.Add(d)) {
			n++
		}
	}
	return n
}

// backlog counts requests due by t that had not started by t.
func backlog(recs []record, t time.Time) int {
	n := 0
	for _, r := range recs {
		if !r.due.After(t) && r.start.After(t) {
			n++
		}
	}
	return n
}

// millis returns the sorted latencies [ms] of the successful records
// selected by keep (nil keeps all).
func millis(recs []record, keep func(*record) bool) []float64 {
	var xs []float64
	for i := range recs {
		r := &recs[i]
		if r.err == nil && (keep == nil || keep(r)) {
			xs = append(xs, float64(r.latency())/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted xs by
// the nearest-rank method; NaN for no samples.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(k, 1), len(sorted))-1]
}

// tailPercentiles are the candidates tail reports, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of sorted xs that has at least ten
// samples beyond it, and its value; the median when none has.
func tail(sorted []float64) (p, v float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if k := int(math.Ceil(p / 100 * float64(n))); n-k >= 10 {
			return p, sorted[k-1]
		}
	}
	return 50, nearestRank(sorted, 50)
}
