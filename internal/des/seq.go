package des

import "fmt"

// This file is the process side of the kernel: Machines, spawning, the
// pooled task runners and the scheduler loop that dispatches them. A
// process is an explicit continuation stepped on the Run caller's
// goroutine; blocking decomposes into the Arm primitives (AdvanceArm,
// HaltArm, Cond.WaitArm, Resource.AcquireArm), after which the Machine
// returns false to the loop and is stepped again when its wake event is
// dispatched.

// Machine is the continuation form of a simulated process: Step resumes
// the process and runs it until it either blocks on virtual time (false)
// or completes (true). All state that must survive a block lives in the
// Machine; the kernel calls Step again at each dispatch of the process.
// A Machine that armed a block (an Arm primitive returned false or was
// invoked) must return false without further simulation calls.
type Machine interface {
	Step(p *Proc) bool
}

// Spawn registers m as a new simulated process that becomes runnable at
// the current virtual time.
func (k *Kernel) Spawn(name string, m Machine) *Proc {
	return k.spawn(name, false, m)
}

// SpawnDaemon is Spawn for service processes that outlive the workload
// they serve (persistent worker-pool threads). Daemons do not count toward
// liveness, so a run whose only remaining processes are parked daemons
// completes instead of reporting a deadlock.
func (k *Kernel) SpawnDaemon(name string, m Machine) *Proc {
	return k.spawn(name, true, m)
}

func (k *Kernel) spawn(name string, daemon bool, m Machine) *Proc {
	p := &Proc{k: k, name: name, daemon: daemon, body: m}
	k.procs = append(k.procs, p)
	if !daemon {
		k.live++
	}
	k.schedule(p, k.now)
	return p
}

// Go runs m as a short-lived simulated process drawn from the kernel's
// pooled runners: the first calls spawn fresh daemon runners, later calls
// reuse parked ones (LIFO), so steady-state task dispatch allocates
// nothing. m must be ready for its first Step and self-reset on
// completion if it is ever reused.
func (k *Kernel) Go(name string, m Machine) {
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
		p.task = m
		p.Wake()
		return
	}
	p := k.spawn(name, true, nil)
	p.pooled = true
	p.task = m
}

// Run executes events until the event queue is empty, a process fails, or
// the virtual clock would exceed until (use math.Inf(1) for no horizon).
// It returns the first process failure, a *DeadlockError if live processes
// remain halted with nothing scheduled, or nil. Parked daemon processes do
// not hold a run open, but pooled runners still executing a task count as
// deadlocked work. A horizon-limited run leaves the queue intact, and a
// later Run resumes it.
//
// A dispatch that resumes the process that stepped last is counted as a
// self-dispatch; every other dispatch is a scheduler dispatch.
//
// A panicking Step is recorded as the run failure, with its process
// retired. The recover is deferred once per Run rather than once per
// dispatch: a panic ends dispatch anyway, so the loop is not resumed.
func (k *Kernel) Run(until float64) (err error) {
	k.horizon = until
	if k.ctx != nil && k.failure == nil {
		if err := k.ctx.Err(); err != nil {
			k.failure = fmt.Errorf("des: run cancelled: %w", err)
		}
	}
	var cur *Proc // the process inside Step, nil between dispatches
	defer func() {
		if cur == nil {
			return // not inside Step: a kernel panic propagates
		}
		r := recover()
		if r == nil {
			return // runtime.Goexit, not a panic
		}
		if k.failure == nil {
			k.failure = fmt.Errorf("des: process %q panicked: %v", cur.name, r)
		}
		cur.done = true
		if !cur.daemon {
			k.live--
		}
		err = k.finish()
	}()
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
		cur = next
		k.step(next)
		cur = nil
		prev = next
	}
	return k.finish()
}

// step resumes one continuation for a single dispatch. A pooled runner
// whose task completes returns to the pool, halted for reuse.
func (k *Kernel) step(p *Proc) {
	if p.pooled {
		if p.task.Step(p) {
			p.task = nil
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
