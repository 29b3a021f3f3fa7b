package omp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/telemetry"
)

// The work-stealing task scheduler: one taskDeque per team member plus
// the idle/wakeup protocol that connects them. Replaces the shared
// mutex+cond queue the task layer started with — see DESIGN.md §6 for
// the protocol and EXPERIMENTS.md for the before/after numbers.
//
// The moving parts:
//
//   - Submission (Thread.Task, TaskGroup.Task, Taskloop) pushes onto the
//     submitting thread's own deque: no shared lock, no wakeup broadcast.
//     If some team member is idle (nidle > 0) the push publishes
//     immediately and unparks one idler; otherwise it doesn't even pay
//     the atomic store every time (deque.go's deferred publication).
//
//   - Draining (TaskWait, TaskGroup.Wait, region end) runs the caller's
//     own deque first — wholesale, a claimed batch at a time — then
//     turns thief: a randomized sweep over the other deques, stealing
//     FIFO from the first non-empty victim.
//
//   - Idling. A waiter with no runnable work anywhere spins through a
//     few sweeps (yielding the processor between them, same shape as the
//     join spin in omp.go), then parks in its deque's park slot: raise
//     the parked flag, register in nidle, re-scan, block on the slot's
//     cap-1 channel. Only the waker whose CAS lowers a flag sends, so a
//     token reaches only the thread that parked for it. A push unparks
//     one idler, a completion that may unblock a waiter unparks all, and
//     a spuriously woken waiter just re-scans and re-parks. The nidle
//     registration happens *before* the final re-scan, and a publisher
//     checks nidle *after* its push is visible, so (both operations
//     being seq-cst) at least one side always sees the other — a task
//     cannot sit published while every thread sleeps.
//
//   - Termination. There is no global in-flight counter on the fast
//     path. Completion tracking is per waitNode (taskgroup.go), and
//     implicit (ungrouped) tasks are counted only when they cross
//     threads: a thief increments the task's node before taking it, the
//     executor decrements after running it. A task popped by its own
//     submitter needs no accounting at all — the submitter's TaskWait
//     cannot return before draining its own deque anyway. The region-end
//     implicit taskwait (drainTasks) runs after the join, when the
//     master is the only goroutine left, and simply sweeps every deque
//     until all are empty.

// taskSpinSweeps is how many full steal sweeps a starved waiter makes
// (yielding between them) before parking.
const taskSpinSweeps = 4

type taskScheduler struct {
	deques []taskDeque
	size   int                  // active deques this region (== team size)
	nidle  atomic.Int32         // team members currently parked or about to park
	stats  telemetry.CounterSet // the counter view TaskStats reads; see Thread.TaskStats
}

func newTaskScheduler(size int) *taskScheduler {
	s := &taskScheduler{deques: make([]taskDeque, 0, max(size, 8))}
	s.reset(size)
	return s
}

// reset readies a recycled scheduler for a new region. Quiescent-only.
func (s *taskScheduler) reset(size int) {
	if cap(s.deques) < size {
		s.deques = make([]taskDeque, size)
	}
	s.deques = s.deques[:size]
	for i := range s.deques {
		s.deques[i].reset()
	}
	s.size = size
	s.nidle.Store(0)
}

// submit pushes tk onto thread id's deque and keeps the idle protocol
// honest: if anyone is parked (or about to park), the push is published
// immediately and one idler is unparked; otherwise publication is
// batched (deque.go).
func (s *taskScheduler) submit(id int, tk task) {
	d := &s.deques[id]
	d.push(tk)
	if s.nidle.Load() > 0 {
		d.publish()
		s.wakeOne()
	} else if d.botLocal-d.lastPub >= publishGrain {
		d.publish()
	}
}

// flush publishes thread id's deque and wakes idlers if any — the
// scheduling point at region-body exit. A thread that leaves the body
// with deferred tasks still queued (no TaskWait) must make them visible:
// a teammate may be parked waiting on a shared taskgroup they belong to,
// and the departed thread will never push (and so never publish) again.
func (s *taskScheduler) flush(id int) {
	s.deques[id].publish()
	if s.nidle.Load() > 0 {
		s.wakeIdle()
	}
}

// unpark hands d's owner a wake token if it is parked. Only the CAS
// winner sends, and the owner raises its flag again only after taking
// the previous token, so the cap-1 channel never blocks the sender.
func unpark(d *taskDeque) bool {
	if d.parked.Load() && d.parked.CompareAndSwap(true, false) {
		d.park <- struct{}{}
		return true
	}
	return false
}

// wakeOne unparks the first parked member — enough for one new task. A
// member registered in nidle without a raised flag is already awake and
// re-scans before it parks again.
func (s *taskScheduler) wakeOne() {
	for i := range s.deques[:s.size] {
		if unpark(&s.deques[i]) {
			return
		}
	}
}

// wakeIdle unparks every parked member — called when a waitNode hits
// zero, since any of them may be the one waiting on that node.
func (s *taskScheduler) wakeIdle() {
	for i := range s.deques[:s.size] {
		unpark(&s.deques[i])
	}
}

// settle retires one unit of nd's outstanding count, waking the idlers
// on the transition to zero.
func (s *taskScheduler) settle(nd *waitNode) {
	if nd.state.Add(-1) == 0 && s.nidle.Load() > 0 {
		s.wakeIdle()
	}
}

// run executes one task on thread t and settles its accounting. stolen
// reports whether the task crossed threads (its node was incremented by
// the thief); counted tasks carry their increment from submission.
func (s *taskScheduler) run(t *Thread, tk task, stolen bool) {
	if t.team.canceled() {
		// Cancelled region: drop the body but settle the completion
		// accounting, so taskwaits and taskgroups parked on this task's
		// node unblock instead of waiting for work that will never run.
		if tk.counted || stolen {
			s.settle(tk.node)
		}
		return
	}
	d := &s.deques[t.id]
	d.ran++
	// The body dispatch is written out in both branches rather than
	// hoisted into a helper: a helper taking the multi-word task struct
	// by value is over the inlining budget, and the extra call + copy is
	// measurable at the ~12 ns/task scale the scheduler operates at.
	if col := t.team.tele; col != nil {
		sp := col.Begin("omp", "task", t.id)
		if stolen {
			sp.SetArg("stolen", "true")
		}
		if tk.fn != nil {
			tk.fn()
		} else {
			tk.exec(t)
		}
		sp.End()
	} else if tk.fn != nil {
		tk.fn()
	} else {
		tk.exec(t)
	}
	if tk.counted || stolen {
		s.settle(tk.node)
	}
}

// drainOwn runs the calling thread's deque dry. The top-level drain goes
// batch-wise through claim (one mutex round trip per claimBatch tasks);
// a reentrant drain — a task body waiting on a nested taskgroup — falls
// back to one-at-a-time pops so it cannot clobber the claim scratch
// buffer its outer drain is still iterating.
func (s *taskScheduler) drainOwn(t *Thread) {
	d := &s.deques[t.id]
	if d.draining {
		for {
			tk, ok := d.popOne()
			if !ok {
				return
			}
			s.run(t, tk, false)
		}
	}
	d.draining = true
	for {
		batch := d.claim()
		if batch == nil {
			break
		}
		for i := range batch {
			s.run(t, batch[i], false)
		}
	}
	d.draining = false
}

// stealOnce makes one randomized sweep over the other deques and runs
// the first task it can steal. Returns false if nothing was stealable.
func (s *taskScheduler) stealOnce(t *Thread) bool {
	n := s.size
	if n <= 1 {
		return false
	}
	// Cheap per-thread xorshift; no need for math/rand in the hot loop.
	t.stealSeed = t.stealSeed*1664525 + 1013904223
	start := int(t.stealSeed>>16) % n
	if start < 0 {
		start += n
	}
	for k := 0; k < n; k++ {
		v := start + k
		if v >= n {
			v -= n
		}
		if v == t.id {
			continue
		}
		d := &s.deques[v]
		if !d.hasPublished() {
			continue
		}
		// An uncounted task's node is incremented inside steal, before the
		// top CAS, so the submitter cannot observe "deque empty, node
		// zero" while the task is in flight (DESIGN.md §6). On a lost
		// race steal hands back the node to settle here.
		tk, ok, undo := d.steal()
		if undo != nil {
			s.settle(undo)
		}
		if !ok {
			continue
		}
		s.deques[t.id].stole++
		if col := t.team.tele; col != nil {
			// Instant event: thief t.id took a task from victim v.
			col.Instant("omp", "steal", t.id, int64(v))
		}
		s.run(t, tk, true)
		return true
	}
	return false
}

// waitNodeZero blocks thread t until nd.state reaches zero, helping with
// any runnable work in the meantime: drain own deque, then steal; after
// a few fruitless sweeps, park in the idle protocol. Wakeups come from
// submissions (new stealable work) and from node completions.
func (s *taskScheduler) waitNodeZero(t *Thread, nd *waitNode) {
	d := &s.deques[t.id]
	for {
		s.drainOwn(t)
		if nd.state.Load() == 0 {
			return
		}
		if s.stealOnce(t) {
			continue
		}
		// Nothing runnable found; spin a few sweeps before parking.
		stalled := true
		for i := 0; i < taskSpinSweeps; i++ {
			runtime.Gosched()
			if nd.state.Load() == 0 {
				return
			}
			if d.botLocal > d.topCache || s.stealOnce(t) {
				stalled = false
				break
			}
		}
		if !stalled {
			continue
		}
		// Park. Raise the flag and register in nidle first, then re-check
		// the predicate and re-scan: a publisher that misses our
		// registration must have published before it, so this final scan
		// sees its work. Finding work means lowering our own flag — unless
		// a waker's CAS already won it, in which case its token is on the
		// way and must be taken.
		d.publish()
		d.parked.Store(true)
		s.nidle.Add(1)
		idle := nd.state.Load() != 0 && !s.anyPublished(t.id) && d.botLocal <= d.topCache
		if idle || !d.parked.CompareAndSwap(true, false) {
			<-d.park
		}
		s.nidle.Add(-1)
	}
}

// anyPublished reports whether any other deque has stealable work.
func (s *taskScheduler) anyPublished(self int) bool {
	for i := 0; i < s.size; i++ {
		if i != self && s.deques[i].hasPublished() {
			return true
		}
	}
	return false
}

// drainAll is the region-end implicit taskwait. It runs on the master
// after the join, when no other team goroutine exists, so plain repeated
// sweeps terminate: any task a drained task spawns lands in some deque
// and is found by a later sweep.
func (s *taskScheduler) drainAll(t *Thread) {
	for {
		s.drainOwn(t)
		progress := false
		for v := 0; v < s.size; v++ {
			if v == t.id {
				continue
			}
			d := &s.deques[v]
			// The owner is gone; adopt its unpublished tail too.
			d.publish()
			for {
				tk, ok, undo := d.steal()
				if undo != nil {
					s.settle(undo)
				}
				if !ok {
					break
				}
				progress = true
				s.run(t, tk, true)
			}
		}
		if !progress && s.deques[t.id].botLocal == s.deques[t.id].topCache &&
			!s.anyPublished(t.id) {
			return
		}
	}
}

// TaskStats is a snapshot of the scheduler's per-region counters, the
// observability hook the steal tests (and curious students) use.
type TaskStats struct {
	Spawned  int64 // tasks submitted
	Executed int64 // tasks run to completion
	Steals   int64 // tasks that crossed threads via the steal path
}

// Telemetry counter names for the task scheduler's aggregates.
const (
	ctrTasksSpawned  = "omp.tasks.spawned"
	ctrTasksExecuted = "omp.tasks.executed"
	ctrTasksStolen   = "omp.tasks.stolen"
)

// sumDeques folds the hot-path per-deque counters. Only well-defined at
// a quiescent point (the fields are owner-goroutine plain writes).
func (s *taskScheduler) sumDeques() (spawned, ran, stole int64) {
	for i := range s.deques[:s.size] {
		d := &s.deques[i]
		spawned += d.pushed
		ran += d.ran
		stole += d.stole
	}
	return
}

// foldInto adds the region's task counter totals to a process-wide
// collector — called by Parallel at region end when telemetry is active,
// so `patternlet run -stats` reports task activity without any explicit
// TaskStats call. Deque counters reset with the region, so successive
// regions accumulate without double counting.
func (s *taskScheduler) foldInto(col *telemetry.Collector) {
	spawned, ran, stole := s.sumDeques()
	col.Counter(ctrTasksSpawned).Add(spawned)
	col.Counter(ctrTasksExecuted).Add(ran)
	col.Counter(ctrTasksStolen).Add(stole)
}

// TaskStats snapshots the team's task counters as a view over the
// telemetry spine: the per-deque hot-path fields are folded into the
// scheduler's telemetry CounterSet, and the returned struct is read back
// from those counters. The underlying fields are plain per-thread
// writes, so the snapshot is only well-defined at a quiescent point:
// call it after a Barrier (with no concurrent task activity) or use the
// value captured by the region for after Parallel returns.
func (t *Thread) TaskStats() TaskStats {
	s := t.sched
	spawned, ran, stole := s.sumDeques()
	cs := &s.stats
	cs.Counter(ctrTasksSpawned).Store(spawned)
	cs.Counter(ctrTasksExecuted).Store(ran)
	cs.Counter(ctrTasksStolen).Store(stole)
	snap := cs.Snapshot()
	return TaskStats{
		Spawned:  snap[ctrTasksSpawned],
		Executed: snap[ctrTasksExecuted],
		Steals:   snap[ctrTasksStolen],
	}
}
