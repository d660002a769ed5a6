package des_test

import (
	"errors"
	"math"
	"testing"

	"hybridperf/internal/des"
	"hybridperf/internal/des/destest"
)

// TestGoReusesPooledRunner issues many sequential tasks through Kernel.Go
// and checks they all run on one persistent pooled runner instead of
// spawning a process per task.
func TestGoReusesPooledRunner(t *testing.T) {
	k := des.NewKernel()
	const tasks = 100
	ran := 0
	k.Spawn("driver", destest.Script(destest.Repeat(tasks,
		destest.Do(func(*des.Proc) {
			k.Go("task", destest.Script(destest.Advance(1), destest.Do(func(*des.Proc) { ran++ })))
		}),
		destest.Advance(2), // task finishes before the next is issued
	)))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if ran != tasks {
		t.Fatalf("ran %d tasks, want %d", ran, tasks)
	}
	if got := k.Procs(); got != 2 { // driver + one pooled runner
		t.Fatalf("spawned %d processes, want 2 (pool not reused)", got)
	}
}

// TestGoOverlappingTasksGrowPool checks the complementary property: tasks
// in flight at the same time each need a runner, and the pool retains them
// for later reuse.
func TestGoOverlappingTasksGrowPool(t *testing.T) {
	k := des.NewKernel()
	k.Spawn("driver", destest.Script(destest.Repeat(5,
		destest.Do(func(*des.Proc) {
			for i := 0; i < 4; i++ {
				k.Go("task", destest.Script(destest.Advance(1)))
			}
		}),
		destest.Advance(2), // all four finish before the next round
	)))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if got := k.Procs(); got != 5 { // driver + the 4 concurrent runners
		t.Fatalf("spawned %d processes, want 5", got)
	}
}

// TestDeadlockExcludesParkedDaemons checks the liveness rule: a run whose
// only remaining processes are parked daemons completes, while a halted
// non-daemon still deadlocks and the report names only the non-daemon.
func TestDeadlockExcludesParkedDaemons(t *testing.T) {
	k := des.NewKernel()
	k.SpawnDaemon("worker-daemon", destest.Script(destest.Halt()))
	if err := k.Run(math.Inf(1)); err != nil {
		t.Fatalf("parked daemon must not hold the run open: %v", err)
	}

	k.Spawn("stuck", destest.Script(destest.Halt()))
	err := k.Run(math.Inf(1))
	var dl *des.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0] != "stuck" {
		t.Fatalf("deadlock names %v, want [stuck] (daemon must be excluded)", dl.Procs)
	}
}

// TestDeadlockIncludesBusyPooledRunner checks that a pooled runner halted
// mid-task counts as deadlocked work: it holds an unfinished task even
// though the runner itself is a daemon.
func TestDeadlockIncludesBusyPooledRunner(t *testing.T) {
	k := des.NewKernel()
	k.Spawn("driver", destest.Script(
		destest.Do(func(*des.Proc) { k.Go("courier", destest.Script(destest.Halt())) }),
		destest.Advance(1),
	))
	err := k.Run(math.Inf(1))
	var dl *des.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0] != "courier" {
		t.Fatalf("deadlock names %v, want [courier]", dl.Procs)
	}
}
