// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events.
// Simulated processes are explicit continuations (Machine values, see
// seq.go) dispatched by one scheduler loop on the caller's goroutine: a
// process runs until it blocks on virtual time, arms the block with one of
// the Arm primitives (AdvanceArm, HaltArm, Cond.WaitArm,
// Resource.AcquireArm) and returns to the loop. No goroutine is started
// for a simulated process. At any instant exactly one process executes,
// so process code needs no locking and every run with the same inputs is
// bit-for-bit reproducible: ties in event time are broken by a monotone
// sequence number.
//
// The event queue is split for speed along the two access patterns the
// simulator generates:
//
//   - future events (AdvanceArm with dt > 0) go through a typed 4-ary
//     min-heap with inlined sift operations — no interface boxing, no
//     per-event allocation;
//   - immediate events (Wake, Spawn, AdvanceArm(0)) go through a FIFO ring:
//     they are scheduled at the current instant with monotonically
//     increasing sequence numbers, so FIFO order *is* (time, seq) order and
//     they never touch the heap.
//
// Dispatch takes the lexicographic minimum of the two queue heads. The
// lookahead fast path skips the queue entirely: when no pending event
// precedes an advancing process's wake, AdvanceArm just moves the clock
// and the process keeps executing.
package des

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hybridperf/internal/metrics"
)

// ctxPollInterval is how many dispatch-loop steps (dispatched events plus
// lookahead advances) pass between two polls of an attached context. It
// trades cancellation latency against hot-path cost: polling ctx.Err()
// takes a mutex, so checking every step would be measurable, while one
// check per 1024 steps is noise yet still bounds the cancellation delay
// of a run to microseconds of real time.
const ctxPollInterval = 1024

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now float64
	seq uint64

	heap    []event // future events: 4-ary min-heap on (t, seq)
	imm     []event // immediate events: FIFO ring, already (t, seq)-sorted
	immH    int     // imm head index
	horizon float64 // the active Run's until bound (limits the fast path)

	live       int // non-daemon processes spawned and not yet finished
	busyGo     int // pooled task runners currently executing a task
	procs      []*Proc
	pool       []*Proc // parked pooled task runners (LIFO)
	dispatched uint64

	failure error // first process panic or cancellation, if any

	// ctx, when non-nil, cancels the run cooperatively: the dispatch loop
	// polls ctx.Err() every ctxPollInterval steps and records a
	// cancellation as the run failure, which stops dispatch. Polling never
	// touches the event queues or sequence numbers, so an uncancelled run
	// is bit-identical with or without a context attached.
	ctx       context.Context
	ctxBudget int

	// mx points at tally while instrumentation is on and is nil when off,
	// so hot-path hooks cost one nil check when off and one plain
	// increment when on. The tally is kernel-local: a kernel runs on one
	// goroutine at a time, so it needs no atomics, and concurrent kernels
	// never share a cache line. Callers publish it once the run is over
	// (see metrics.Engine.Add). The counters never feed back into
	// scheduling, so instrumented runs stay bit-for-bit identical.
	mx    *metrics.EngineSnapshot
	tally metrics.EngineSnapshot
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Err reports the first process failure observed during Run, or nil.
func (k *Kernel) Err() error { return k.failure }

// Events reports the number of events dispatched so far (lookahead
// fast-path advances are not events; they bypass the queue entirely).
func (k *Kernel) Events() uint64 { return k.dispatched }

// Procs reports the number of processes ever spawned, including daemons
// and pooled task runners. With persistent worker pools this stays near
// the process count of the simulated system instead of growing with the
// event count.
func (k *Kernel) Procs() int { return len(k.procs) }

// SetContext attaches a cancellation context to the kernel (nil, or a
// context that can never be cancelled, detaches). A cancelled context
// stops the run mid-simulation: Run returns an error wrapping ctx.Err().
func (k *Kernel) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		k.ctx = nil
		return
	}
	k.ctx = ctx
	k.ctxBudget = ctxPollInterval
}

// pollCtx checks the attached context at most once per ctxPollInterval
// calls and records a cancellation as the run failure. It reports whether
// the run is being cancelled.
func (k *Kernel) pollCtx() bool {
	if k.ctx == nil {
		return false
	}
	k.ctxBudget--
	if k.ctxBudget > 0 {
		return false
	}
	k.ctxBudget = ctxPollInterval
	if err := k.ctx.Err(); err != nil {
		if k.failure == nil {
			k.failure = fmt.Errorf("des: run cancelled after %d events at t=%g: %w", k.dispatched, k.now, err)
		}
		return true
	}
	return false
}

// SetMetrics switches the kernel's own engine tally on or off. The tally
// is never shared with another kernel; read it with Metrics.
func (k *Kernel) SetMetrics(on bool) {
	if on {
		k.mx = &k.tally
	} else {
		k.mx = nil
	}
}

// Metrics returns the kernel's engine tally, or nil when instrumentation
// is off. Simulated runtimes built on the kernel (omp, mpi) count into it
// without extra plumbing; like the rest of the kernel, it must only be
// touched from the goroutine running the simulation.
func (k *Kernel) Metrics() *metrics.EngineSnapshot { return k.mx }

type event struct {
	t   float64
	seq uint64
	p   *Proc
}

// heapPush inserts e into the 4-ary min-heap (sift-up, inlined compare).
func (k *Kernel) heapPush(e event) {
	if k.mx != nil {
		k.mx.ObserveHeap(uint64(len(k.heap) + 1))
	}
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if h[parent].t < h[i].t || (h[parent].t == h[i].t && h[parent].seq < h[i].seq) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.heap = h
}

// heapPop removes and returns the minimum event. Callers check emptiness.
func (k *Kernel) heapPop() event {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h = h[:last]
	k.heap = h
	if last > 0 {
		// Sift the former tail down from the root across 4 children:
		// find the smallest child below e's key, promote it, descend.
		i := 0
		for {
			min := -1
			minT, minSeq := e.t, e.seq
			c0 := i<<2 + 1
			cEnd := c0 + 4
			if cEnd > last {
				cEnd = last
			}
			for c := c0; c < cEnd; c++ {
				if h[c].t < minT || (h[c].t == minT && h[c].seq < minSeq) {
					min, minT, minSeq = c, h[c].t, h[c].seq
				}
			}
			if min < 0 {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = e
	}
	return top
}

// Proc is the handle through which a simulated process interacts with
// virtual time. The kernel passes it to the process's Machine at every
// dispatch; it must not be shared across simulated processes.
type Proc struct {
	k       *Kernel
	name    string
	wakeSeq uint64 // sequence of the pending wake event; 0 when halted
	halted  bool
	done    bool
	daemon  bool // excluded from liveness/deadlock accounting

	// body is the process's continuation; pooled runners (see Kernel.Go)
	// carry their current task instead.
	body   Machine
	task   Machine
	pooled bool
}

// Name returns the label the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// schedule enqueues a wake event for p at time t. Immediate events
// (t == now — Spawn, Wake, zero AdvanceArm) go to the FIFO ring: the clock
// never moves backwards and sequence numbers are monotone, so appending
// preserves (t, seq) order without a heap round-trip.
func (k *Kernel) schedule(p *Proc, t float64) {
	k.seq++
	p.wakeSeq = k.seq
	if t <= k.now {
		if k.immH == len(k.imm) {
			k.imm = k.imm[:0]
			k.immH = 0
		}
		k.imm = append(k.imm, event{t: t, seq: k.seq, p: p})
		return
	}
	k.heapPush(event{t: t, seq: k.seq, p: p})
}

// AdvanceArm suspends the process for dt seconds of virtual time. It
// either consumes dt synchronously (true — the clock has already moved,
// keep executing) or schedules the process's wake at now+dt and reports
// false, in which case the Machine must return false up to the scheduler
// loop and treat its next Step as the advance having completed. Negative
// or NaN durations are treated as zero (the process yields and is
// rescheduled at the current instant, after already-pending events).
//
// Fast path: when no pending event precedes this process's wake — the FIFO
// is drained and the heap is empty or strictly later — the kernel would
// dispatch this same process next, so AdvanceArm just moves the clock.
// Sequence numbers are consumed per *scheduled* event only; skipping the
// round-trip preserves the relative order of all surviving events, so runs
// remain bit-for-bit identical.
func (p *Proc) AdvanceArm(dt float64) bool {
	if dt < 0 || math.IsNaN(dt) {
		dt = 0
	}
	k := p.k
	if k.immH == len(k.imm) {
		t := k.now + dt
		// The cancellation poll rides the fast path too: a single-process
		// compute loop dispatches almost no events, so counting only
		// dispatches would let it outrun a cancelled context. A cancelled
		// run falls through to the scheduled path, and dispatch stops.
		if t <= k.horizon && (len(k.heap) == 0 || k.heap[0].t > t) && !k.pollCtx() {
			k.now = t
			if k.mx != nil {
				k.mx.Lookaheads++
			}
			return true
		}
	}
	k.schedule(p, k.now+dt)
	return false
}

// HaltArm marks the process halted until another process calls Wake. The
// calling Machine must yield (return false) immediately after arming; its
// next Step runs once it has been woken.
func (p *Proc) HaltArm() {
	p.halted = true
	p.wakeSeq = 0
}

// Wake makes a halted process runnable at the current virtual time.
// Waking a process that is not halted panics: it would corrupt the
// scheduler invariant that each process has at most one pending wake.
func (p *Proc) Wake() {
	if !p.halted {
		panic(fmt.Sprintf("des: Wake on non-halted process %q", p.name))
	}
	p.halted = false
	p.k.schedule(p, p.k.now)
}

// DeadlockError reports a run that stopped because every live process was
// halted with no pending events.
type DeadlockError struct {
	Time  float64
	Procs []string // names of halted processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock at t=%g: %d process(es) halted: %v", e.Time, len(e.Procs), e.Procs)
}

// dispatchNext pops stale wakes, then dispatches the (time, seq)-minimum
// pending event: the clock moves to its time and its process is returned,
// ready to be resumed. It returns nil when the queue is drained or the head
// event lies beyond the run horizon (left queued for a later Run). The
// imm/heap head comparison and the pop are fused so each dispatch touches
// the queues exactly once.
func (k *Kernel) dispatchNext() *Proc {
	// A recorded failure (process panic or context cancellation) stops
	// dispatch, and Run returns it.
	if k.failure != nil || k.pollCtx() {
		return nil
	}
	for {
		var ev event
		fromImm := false
		immOK := k.immH < len(k.imm)
		switch {
		case immOK && len(k.heap) > 0:
			ie, he := k.imm[k.immH], k.heap[0]
			if he.t < ie.t || (he.t == ie.t && he.seq < ie.seq) {
				ev = he
			} else {
				ev, fromImm = ie, true
			}
		case immOK:
			ev, fromImm = k.imm[k.immH], true
		case len(k.heap) > 0:
			ev = k.heap[0]
		default:
			return nil
		}
		if ev.p.done || ev.seq != ev.p.wakeSeq {
			// Stale wake (process was rescheduled or finished).
			if fromImm {
				k.immH++
			} else {
				k.heapPop()
			}
			continue
		}
		if ev.t > k.horizon {
			return nil
		}
		if fromImm {
			k.immH++
		} else {
			k.heapPop()
		}
		if ev.t > k.now {
			k.now = ev.t
		}
		ev.p.wakeSeq = 0
		k.dispatched++
		if k.mx != nil {
			k.mx.Events++
		}
		return ev.p
	}
}

// finish classifies the run's terminal state once dispatch has stopped:
// recorded failure, horizon-limited (queue intact), completion, or
// deadlock.
func (k *Kernel) finish() error {
	if k.failure != nil {
		return k.failure
	}
	if k.immH < len(k.imm) || len(k.heap) > 0 {
		// Head event beyond the horizon: stop with the queue intact.
		return nil
	}
	if k.live > 0 || k.busyGo > 0 {
		var names []string
		for _, p := range k.procs {
			if p.done || !p.halted {
				continue
			}
			if !p.daemon || p.task != nil {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		return &DeadlockError{Time: k.now, Procs: names}
	}
	return nil
}
