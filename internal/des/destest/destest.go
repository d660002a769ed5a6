// Package destest builds des.Machines from scripts, for tests. A script
// is a sequence of resumable steps of the kind the simulated runtimes
// expose (node.ComputeStep, mpi.WaitCountStep, ...): a step returns false
// when it has armed a block and is called again at the process's next
// dispatch, until it returns true.
package destest

import "hybridperf/internal/des"

// Step is one resumable script step.
type Step func(p *des.Proc) bool

// Script returns a Machine that runs steps in order.
func Script(steps ...Step) des.Machine { return machine(seq(steps...)) }

type machine Step

func (m machine) Step(p *des.Proc) bool { return m(p) }

// seq composes steps into one step that runs them in order.
func seq(steps ...Step) Step { return Repeat(1, steps...) }

// Repeat returns a step that runs steps in order, n times. It resets on
// completion, so it may itself be repeated.
func Repeat(n int, steps ...Step) Step {
	i, pc := 0, 0
	return func(p *des.Proc) bool {
		for ; i < n; i++ {
			for ; pc < len(steps); pc++ {
				if !steps[pc](p) {
					return false
				}
			}
			pc = 0
		}
		i = 0
		return true
	}
}

// Do wraps a non-blocking action as a step.
func Do(f func(p *des.Proc)) Step {
	return func(p *des.Proc) bool { f(p); return true }
}

// Arm wraps a one-shot Arm primitive (AdvanceArm, HaltArm,
// Resource.AcquireArm, ...): f runs once, and if it armed a block (false)
// the step completes at the process's next dispatch.
func Arm(f func(p *des.Proc) bool) Step {
	armed := false
	return func(p *des.Proc) bool {
		if armed {
			armed = false
			return true
		}
		if f(p) {
			return true
		}
		armed = true
		return false
	}
}

// Advance suspends the process for dt seconds of virtual time.
func Advance(dt float64) Step {
	return Arm(func(p *des.Proc) bool { return p.AdvanceArm(dt) })
}

// Halt halts the process until another process wakes it.
func Halt() Step {
	return Arm(func(p *des.Proc) bool { p.HaltArm(); return false })
}

// Await waits on c until ready reports true, re-checking after every
// broadcast.
func Await(c *des.Cond, ready func() bool) Step {
	return func(p *des.Proc) bool {
		if ready() {
			return true
		}
		c.WaitArm(p)
		return false
	}
}

// Acquire queues for r and completes holding it; if wait is non-nil it
// receives the queueing delay. Release with r.Release or r.ServeDone.
func Acquire(r *des.Resource, wait *float64) Step {
	var enq float64
	return seq(
		Do(func(p *des.Proc) { enq = p.Now() }),
		Arm(r.AcquireArm),
		Do(func(*des.Proc) {
			w := r.AcquireDone(enq)
			if wait != nil {
				*wait = w
			}
		}),
	)
}

// Serve holds r for service seconds after queueing FCFS for it; if wait
// is non-nil it receives the queueing delay.
func Serve(r *des.Resource, service float64, wait *float64) Step {
	return seq(
		Acquire(r, wait),
		Advance(service),
		Do(func(*des.Proc) { r.ServeDone(service) }),
	)
}
