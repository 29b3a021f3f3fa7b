package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTaskAllExecuteExactlyOnce(t *testing.T) {
	const ntasks = 50
	var runs [ntasks]atomic.Int32
	Parallel(func(th *Thread) {
		th.Master(func() {
			for i := 0; i < ntasks; i++ {
				th.Task(func() { runs[i].Add(1) })
			}
		})
		th.Barrier()
		th.TaskWait()
	}, WithNumThreads(4))
	for i := range runs {
		if runs[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, runs[i].Load())
		}
	}
}

func TestTaskWaitBlocksUntilDone(t *testing.T) {
	var done atomic.Int32
	Parallel(func(th *Thread) {
		if th.ThreadNum() == 0 {
			for i := 0; i < 20; i++ {
				th.Task(func() { done.Add(1) })
			}
			th.TaskWait()
			if done.Load() != 20 {
				t.Errorf("TaskWait returned with %d of 20 tasks done", done.Load())
			}
		}
	}, WithNumThreads(4))
}

func TestRegionEndIsImplicitTaskwait(t *testing.T) {
	var done atomic.Int32
	Parallel(func(th *Thread) {
		th.Task(func() { done.Add(1) })
		// No explicit TaskWait: the region end must still run it.
	}, WithNumThreads(4))
	if done.Load() != 4 {
		t.Fatalf("%d of 4 tasks ran by region end", done.Load())
	}
}

func TestNestedTaskSubmission(t *testing.T) {
	// Tasks submitting tasks: recursive Fork-Join, the merge-sort shape.
	// Each level opens a taskgroup, forks one child as a task, recurses
	// into the other inline, and joins — spawns always go through the
	// thread actually executing the node.
	var leaves atomic.Int32
	Parallel(func(th *Thread) {
		th.Master(func() {
			var spawn func(c *Thread, depth int)
			spawn = func(c *Thread, depth int) {
				if depth == 0 {
					leaves.Add(1)
					return
				}
				c.TaskGroup(func(tg *TaskGroup) {
					tg.Task(c, func(e *Thread) { spawn(e, depth-1) })
					spawn(c, depth-1)
				})
			}
			spawn(th, 5)
		})
	}, WithNumThreads(4))
	if leaves.Load() != 32 {
		t.Fatalf("%d leaves, want 32", leaves.Load())
	}
}

func TestTasksRunOnMultipleThreads(t *testing.T) {
	// A shared taskgroup seeded by the master: every thread's Wait helps
	// execute it, so with enough slow tasks the steal path must spread
	// work beyond thread 0.
	var mu sync.Mutex
	executors := map[int]bool{}
	var ran atomic.Int32
	Parallel(func(th *Thread) {
		root := th.SharedTaskGroup()
		th.Master(func() {
			for i := 0; i < 200; i++ {
				root.Task(th, func(e *Thread) {
					time.Sleep(50 * time.Microsecond)
					mu.Lock()
					executors[e.ThreadNum()] = true
					mu.Unlock()
					ran.Add(1)
				})
			}
		})
		th.Barrier()
		root.Wait(th)
	}, WithNumThreads(4))
	if ran.Load() != 200 {
		t.Fatalf("%d of 200 tasks ran", ran.Load())
	}
	// Exact spread is schedule-dependent, but someone must have run them.
	if len(executors) == 0 {
		t.Fatal("no task executed")
	}
}

func TestTaskWaitScopedToSubmitter(t *testing.T) {
	// Regression for the old team-wide TaskWait: thread 0's TaskWait must
	// cover its own children only. Thread 1 queues a task gated on a
	// channel that is only closed *after* thread 0's TaskWait returns —
	// under drain-the-whole-team semantics this deadlocks.
	gate := make(chan struct{})
	waited := make(chan struct{})
	var own atomic.Int32
	Parallel(func(th *Thread) {
		switch th.ThreadNum() {
		case 1:
			th.Task(func() { <-gate })
			close(waited) // hand off to thread 0 only after the gated task is queued
			th.TaskWait()
		case 0:
			<-waited
			for i := 0; i < 10; i++ {
				th.Task(func() { own.Add(1) })
			}
			th.TaskWait()
			if own.Load() != 10 {
				t.Errorf("TaskWait returned with %d of 10 own tasks done", own.Load())
			}
			close(gate) // release thread 1's child; region end drains it
		}
	}, WithNumThreads(4))
}

func TestTaskGroupWaitsExactlyItsTasks(t *testing.T) {
	var inGroup, outside atomic.Int32
	Parallel(func(th *Thread) {
		th.Master(func() {
			th.Task(func() { outside.Add(1) }) // implicit scope, not the group's
			th.TaskGroup(func(tg *TaskGroup) {
				for i := 0; i < 25; i++ {
					tg.Task(th, func(*Thread) { inGroup.Add(1) })
				}
				if n := inGroup.Load(); n == 25 {
					// Fine — tasks may run eagerly during submission via
					// steals, but the group must not be "done" before all
					// submissions.
					_ = n
				}
			})
			if inGroup.Load() != 25 {
				t.Errorf("taskgroup joined with %d of 25 tasks done", inGroup.Load())
			}
		})
	}, WithNumThreads(4))
	if outside.Load() != 1 {
		t.Fatalf("ungrouped task ran %d times", outside.Load())
	}
}

func TestTaskloopCoversRange(t *testing.T) {
	for _, threads := range []int{1, 3, 4} {
		const n = 1000
		hits := make([]atomic.Int32, n)
		Parallel(func(th *Thread) {
			th.Master(func() {
				th.Taskloop(0, n, 7, func(i int) { hits[i].Add(1) })
			})
		}, WithNumThreads(threads))
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("threads=%d: iteration %d ran %d times", threads, i, hits[i].Load())
			}
		}
	}
}

func TestTaskStatsCountsStealsAndSpawns(t *testing.T) {
	// One producer, three consumers parked on a shared group: the
	// consumers can only get work through the steal path. The producer
	// holds off its own Wait until a consumer has run one of its tasks;
	// otherwise its drain may claim all 100 before any consumer reaches
	// the group.
	const ntasks = 100
	var stats TaskStats
	var consumed atomic.Bool
	Parallel(func(th *Thread) {
		root := th.SharedTaskGroup()
		th.Master(func() {
			for i := 0; i < ntasks; i++ {
				root.Task(th, func(e *Thread) {
					if e.ThreadNum() != 0 {
						consumed.Store(true)
					}
					time.Sleep(20 * time.Microsecond)
				})
			}
		})
		th.Barrier()
		th.Master(func() {
			for deadline := time.Now().Add(10 * time.Second); !consumed.Load() && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
		})
		root.Wait(th)
		th.Barrier() // quiesce before reading the plain counters
		th.Master(func() { stats = th.TaskStats() })
	}, WithNumThreads(4))
	if stats.Spawned != ntasks {
		t.Fatalf("Spawned = %d, want %d", stats.Spawned, ntasks)
	}
	if stats.Executed != ntasks {
		t.Fatalf("Executed = %d, want %d", stats.Executed, ntasks)
	}
	if stats.Steals == 0 {
		t.Fatal("no steals recorded: consumers never took work from the producer")
	}
	if stats.Steals > stats.Executed {
		t.Fatalf("Steals = %d exceeds Executed = %d", stats.Steals, stats.Executed)
	}
}

func TestParkedThreadsNeverLoseAWakeup(t *testing.T) {
	// The wavefront shape (align.Wavefront): one driver task in a shared
	// group runs Taskloop "diagonals", so the thread running it waits
	// re-entrantly while its teammates park on the group and wake for
	// each diagonal's chunks. A wake token taken by the wrong thread (one
	// that re-parked quickly, instead of a teammate still on its way to
	// its receive) leaves the whole team asleep. Regions repeat for a few
	// seconds; the test goroutine is stuck in a hung region, so the
	// watchdog panics instead, dumping every goroutine.
	const (
		threads   = 4
		diagonals = 2
		chunks    = 4
		runFor    = 3 * time.Second
		watchdog  = 5 * time.Second
	)
	chunk := func() int64 { // a few µs of race-free work
		x := 0
		for i := 0; i < 10000; i++ {
			x += i & 7
		}
		return int64(x)
	}
	var regions, sum atomic.Int64
	wd := time.AfterFunc(time.Hour, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("region %d hung for %v; goroutines:\n%s",
			regions.Load(), watchdog, buf[:runtime.Stack(buf, true)]))
	})
	defer wd.Stop()
	for start := time.Now(); time.Since(start) < runFor; regions.Add(1) {
		wd.Reset(watchdog)
		Parallel(func(th *Thread) {
			root := th.SharedTaskGroup()
			th.Master(func() {
				root.Task(th, func(e *Thread) {
					for d := 0; d < diagonals; d++ {
						e.Taskloop(0, chunks, 1, func(int) { sum.Add(chunk()) })
					}
				})
			})
			th.Barrier()
			root.Wait(th)
		}, WithNumThreads(threads))
	}
	if want := regions.Load() * diagonals * chunks * chunk(); sum.Load() != want {
		t.Fatalf("chunk sum %d after %d regions, want %d", sum.Load(), regions.Load(), want)
	}
	t.Logf("%d regions", regions.Load())
}

func TestTaskStressProducersThievesNestedGroups(t *testing.T) {
	// Race-detector stress: every thread is simultaneously a producer
	// (own fan-out tree via nested taskgroups), a consumer (its own
	// drain) and a thief (helping others through group waits). Run a few
	// rounds over recycled teams to shake publication/reset bugs too.
	const depth = 6 // 2^6 leaves per thread per round
	for round := 0; round < 3; round++ {
		var leaves atomic.Int64
		Parallel(func(th *Thread) {
			var spawn func(c *Thread, d int)
			spawn = func(c *Thread, d int) {
				if d == 0 {
					leaves.Add(1)
					return
				}
				c.TaskGroup(func(tg *TaskGroup) {
					tg.Task(c, func(e *Thread) { spawn(e, d-1) })
					tg.Task(c, func(e *Thread) { spawn(e, d-1) })
				})
			}
			spawn(th, depth)
			// Plus an implicit-scope burst racing the group traffic.
			for i := 0; i < 64; i++ {
				th.Task(func() { leaves.Add(1) })
			}
			th.TaskWait()
		}, WithNumThreads(4))
		want := int64(4 * (64 + 64)) // 2^depth leaves + 64 plain tasks, per thread
		if got := leaves.Load(); got != want {
			t.Fatalf("round %d: %d leaves, want %d", round, got, want)
		}
	}
}

func TestOrderedRegionSequencesIterations(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	var order []int
	ord := NewOrdered(0, n)
	Parallel(func(th *Thread) {
		th.For(0, n, StaticChunk(1), func(i int) {
			// Unordered part could run any time; the ordered section must
			// execute in iteration order.
			ord.Do(i, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
	}, WithNumThreads(4))
	if len(order) != n {
		t.Fatalf("%d ordered executions", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ordered region ran out of order: %v", order)
		}
	}
}

func TestOrderedRegionWithNonZeroLo(t *testing.T) {
	var got []int
	ord := NewOrdered(5, 9)
	Parallel(func(th *Thread) {
		th.For(5, 9, StaticEqual(), func(i int) {
			ord.Do(i, func() { got = append(got, i) })
		})
	}, WithNumThreads(2))
	want := []int{5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}
