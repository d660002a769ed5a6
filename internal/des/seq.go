package des

import "fmt"

// This file is the sequential process engine: the goroutine-free
// counterpart of the spawn/park machinery in des.go. Processes are
// explicit continuations (Machines) dispatched by one scheduler loop on
// the Run caller's goroutine, eliminating the per-event channel handoff.
//
// Determinism is preserved by construction rather than by parallel
// reimplementation: the sequential engine reuses the same schedule,
// dispatchNext, queue structures and fast-path conditions as the goroutine
// engine, so sequence-number consumption and dispatch order are identical.
// Blocking decomposes into the Arm primitives (AdvanceArm, HaltArm,
// Cond.WaitArm, Resource.AcquireArm) that the goroutine primitives are
// themselves built on — the only difference is who suspends: a goroutine
// parks, a Machine returns false to the scheduler loop.

// Machine is the continuation form of a simulated process: Step resumes
// the process and runs it until it either blocks on virtual time (false)
// or completes (true). All state that must survive a block lives in the
// Machine; the kernel calls Step again at each dispatch of the process.
// A Machine that armed a block (an Arm primitive returned false or was
// invoked) must return false without further simulation calls.
type Machine interface {
	Step(p *Proc) bool
}

// NewSequentialKernel returns an empty kernel running the sequential
// engine: processes must be Machines spawned with SpawnSeq,
// SpawnDaemonSeq or GoSeq, and the goroutine-style blocking primitives
// panic. Results are bit-for-bit identical to NewKernel for equivalent
// process bodies.
func NewSequentialKernel() *Kernel {
	return &Kernel{seqMode: true}
}

// Sequential reports whether the kernel runs the sequential engine.
func (k *Kernel) Sequential() bool { return k.seqMode }

// SpawnSeq registers m as a new simulated process that becomes runnable at
// the current virtual time — the sequential counterpart of Spawn.
func (k *Kernel) SpawnSeq(name string, m Machine) *Proc {
	return k.spawnSeq(name, false, m)
}

// SpawnDaemonSeq is SpawnSeq for service processes excluded from
// liveness/deadlock accounting — the sequential counterpart of
// SpawnDaemon.
func (k *Kernel) SpawnDaemonSeq(name string, m Machine) *Proc {
	return k.spawnSeq(name, true, m)
}

func (k *Kernel) spawnSeq(name string, daemon bool, m Machine) *Proc {
	if !k.seqMode {
		panic("des: SpawnSeq on a goroutine kernel (use Spawn)")
	}
	p := &Proc{k: k, name: name, daemon: daemon, body: m}
	k.procs = append(k.procs, p)
	if !daemon {
		k.live++
	}
	k.schedule(p, k.now)
	return p
}

// GoSeq runs m as a short-lived simulated process drawn from the kernel's
// pooled runners — the sequential counterpart of Go, with identical pool
// reuse (LIFO), busy accounting and metrics, so both engines consume the
// same sequence numbers per task. m must be ready for its first Step and
// self-reset on completion if it is ever reused.
func (k *Kernel) GoSeq(name string, m Machine) {
	if !k.seqMode {
		panic("des: GoSeq on a goroutine kernel (use Go)")
	}
	k.busyGo++
	if k.mx != nil {
		if len(k.pool) > 0 {
			k.mx.PoolHits++
		} else {
			k.mx.PoolSpawns++
		}
	}
	if n := len(k.pool); n > 0 {
		p := k.pool[n-1]
		k.pool = k.pool[:n-1]
		p.name = name
		p.seqTask = m
		p.Wake()
		return
	}
	p := k.spawnSeq(name, true, nil)
	p.pooled = true
	p.seqTask = m
}

// runSeq is the sequential engine's Run: one scheduler loop dispatching
// continuations until the queue drains, the horizon is reached, or a
// failure is recorded. Dispatch classification mirrors the goroutine
// engine where the notion transfers: a dispatch that resumes the process
// that just yielded is a self-dispatch (the same condition under which the
// goroutine engine's park returns without a handoff); every other dispatch
// is a scheduler dispatch. Handoffs never occur — there is no second
// goroutine to hand control to.
func (k *Kernel) runSeq(until float64) error {
	k.horizon = until
	if k.ctx != nil && k.failure == nil {
		if err := k.ctx.Err(); err != nil {
			k.failure = fmt.Errorf("des: run cancelled: %w", err)
		}
	}
	var prev *Proc
	for {
		next := k.dispatchNext()
		if next == nil {
			break
		}
		if k.mx != nil {
			if next == prev {
				k.mx.SelfDispatches++
			} else {
				k.mx.SchedulerDispatches++
			}
		}
		k.stepSeq(next)
		prev = next
	}
	return k.finish()
}

// stepSeq resumes one continuation for a single dispatch. Pooled runners
// mirror the goroutine task-runner loop: a completed task returns the
// runner to the pool and halts it for reuse. A panicking Step is recorded
// as the run failure with the process retired, exactly as the goroutine
// wrapper does.
func (k *Kernel) stepSeq(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if k.failure == nil {
				k.failure = fmt.Errorf("des: process %q panicked: %v", p.name, r)
			}
			p.done = true
			if !p.daemon {
				k.live--
			}
		}
	}()
	if p.pooled {
		if p.seqTask.Step(p) {
			p.seqTask = nil
			k.busyGo--
			k.pool = append(k.pool, p)
			p.HaltArm()
		}
		return
	}
	if p.body.Step(p) {
		p.done = true
		if !p.daemon {
			k.live--
		}
	}
}
