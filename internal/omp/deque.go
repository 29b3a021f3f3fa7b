package omp

import (
	"sync"
	"sync/atomic"
)

// Per-thread work-stealing deques, the data structure under the task
// runtime (see sched.go for the scheduler built on top, and DESIGN.md §6
// for the protocol write-up).
//
// Each team member owns one deque. The owner pushes and pops at the
// *bottom* (LIFO — the most recently spawned task is the hottest in
// cache, and in recursive decomposition it is also the smallest), while
// thieves take from the *top* (FIFO — the oldest task is the largest
// remaining subtree, so one steal moves half the work). The layout is
// the classic Chase-Lev deque with two twists that fit this runtime:
//
//  1. Value slots. Tasks are small structs stored by value in the ring,
//     so the hot path allocates nothing. The torn-read hazard this
//     creates for thieves (a thief speculatively reads a multi-word slot
//     before winning the top CAS) is excluded by construction: the ring
//     grows while one slack slot remains, so an in-flight push can never
//     alias a slot a thief may still be reading, and after a grow the
//     owner never writes the old array again.
//
//  2. Deferred bottom publication. The owner appends through a plain
//     shadow index (botLocal) and publishes to the atomic bottom only
//     every publishGrain pushes — or immediately when some team member
//     is idle (sched.nidle > 0). This keeps the common push at a plain
//     slot write plus one branch; the seq-cst store that Chase-Lev pays
//     per push is amortized away whenever nobody is starving. Work that
//     is not yet published is invisible to thieves but always reachable
//     by the owner, and the owner publishes on every scheduling point
//     that can block (wait loops, parking, region-body exit), so no task
//     can be stranded.
//
// Thieves additionally serialize on a per-deque mutex (stealMu). With at
// most one thief per deque at a time the lock-free subtlety is confined
// to the owner/thief pair, and the owner can claim the whole published
// range wholesale under the same mutex (claim), which is what makes the
// drain side of TaskWait nearly free per task.

// task is one deferred unit of work. Exactly one of fn/exec is set: fn
// is the plain #pragma-omp-task closure, exec additionally receives the
// thread that ends up running the task (the handle recursive code must
// use to spawn further tasks from inside a task body).
type task struct {
	fn      func()
	exec    func(*Thread)
	node    *waitNode
	counted bool // node was incremented at submit (taskgroup tasks)
}

// taskRing is one generation of a deque's storage; the deque swaps in a
// doubled ring when full. len(slots) is always a power of two.
type taskRing struct {
	slots []task
	mask  int64
}

// Defaults: rings start small and double; a ring that grew huge during a
// burst is dropped at region reset instead of being zeroed.
const (
	dequeInitialSize = 64
	dequeRetainSize  = 8192
	publishGrain     = 16
	claimBatch       = 256
)

// taskDeque is one thread's deque plus its owner-local scheduling state.
// Fields in the "owner-only" group are touched exclusively by the owning
// thread's goroutine (enforced by the Thread.Task contract, task.go), so
// they need no synchronization; cross-thread readers see pushes only
// through the top/bot atomics, whose publication orders the plain slot
// writes before them.
type taskDeque struct {
	buf     atomic.Pointer[taskRing]
	top     atomic.Int64 // next slot thieves take; only ever increases
	bot     atomic.Int64 // published bottom: slots [top, bot) are stealable
	stealMu sync.Mutex   // serializes thieves (and claim) on this deque

	// Owner-only state.
	botLocal int64  // true bottom; >= bot
	lastPub  int64  // value of bot last published
	topCache int64  // stale copy of top, refreshed when the ring looks full
	draining bool   // a wholesale claim batch is being executed (reentrancy)
	scratch  []task // claim buffer, reused across batches

	// Counters for TaskStats. pushed/ran are owner-only plain fields;
	// stole counts successful steals *performed by* this deque's owner
	// (also owner-goroutine-only). They are only meaningful at a
	// quiescent point — after a Barrier or once Parallel returns.
	pushed int64
	ran    int64
	stole  int64

	// Park slot (sched.go's idle protocol): the owner raises parked before
	// it registers as idle; the waker whose CAS lowers it sends the one
	// token park may hold.
	parked atomic.Bool
	park   chan struct{}

	_ [16]byte // keep adjacent deques off each other's cache lines
}

// push appends a task at the bottom. Owner only.
func (d *taskDeque) push(tk task) {
	b := d.botLocal
	r := d.buf.Load()
	if r == nil || b-d.topCache >= int64(len(r.slots))-1 {
		d.topCache = d.top.Load()
		if r == nil || b-d.topCache >= int64(len(r.slots))-1 {
			r = d.grow(r, b)
		}
	}
	r.slots[b&r.mask] = tk
	d.botLocal = b + 1
	d.pushed++
}

// grow doubles the ring, copying the live range [top, botLocal). The old
// array is never written again, so a thief holding a stale ring pointer
// reads consistent (if already-copied) values; the top CAS still
// arbitrates ownership of each element exactly once.
func (d *taskDeque) grow(old *taskRing, b int64) *taskRing {
	n := dequeInitialSize
	if old != nil {
		n = len(old.slots) * 2
	}
	r := &taskRing{slots: make([]task, n), mask: int64(n - 1)}
	if old != nil {
		for i := d.topCache; i < b; i++ {
			r.slots[i&r.mask] = old.slots[i&old.mask]
		}
	}
	d.buf.Store(r)
	return r
}

// publish makes everything pushed so far visible to thieves. Owner only;
// called on every scheduling point that may block, and periodically from
// push via maybePublish.
func (d *taskDeque) publish() {
	if d.botLocal != d.lastPub {
		d.bot.Store(d.botLocal)
		d.lastPub = d.botLocal
	}
}

// size returns the owner's view of how many tasks are queued.
func (d *taskDeque) size() int64 { return d.botLocal - d.topCache }

// popOne takes the most recently pushed task — the standard Chase-Lev
// owner pop, used on reentrant drains and TaskYield. Owner only.
func (d *taskDeque) popOne() (task, bool) {
	b := d.botLocal - 1
	if b < d.topCache {
		return task{}, false
	}
	// Publish the decremented bottom before inspecting top: this is the
	// store-load fence that arbitrates the last element against thieves.
	d.botLocal = b
	d.bot.Store(b)
	d.lastPub = b
	t := d.top.Load()
	d.topCache = t
	if t > b { // deque was already empty
		d.botLocal = b + 1
		d.bot.Store(b + 1)
		d.lastPub = b + 1
		return task{}, false
	}
	r := d.buf.Load()
	tk := r.slots[b&r.mask]
	if t == b { // last element: race the thief for it
		won := d.top.CompareAndSwap(t, t+1)
		d.botLocal = b + 1
		d.bot.Store(b + 1)
		d.lastPub = b + 1
		if won {
			d.topCache = t + 1
		}
		if !won {
			return task{}, false
		}
	}
	return tk, true
}

// claim transfers up to claimBatch queued tasks into the scratch buffer
// and returns them, oldest first. Owner only. Holding stealMu excludes
// thieves for the duration, so the copied range is claimed with plain
// stores; the copy happens before top moves, so tasks the owner pushes
// while later executing the batch cannot overwrite unexecuted entries.
func (d *taskDeque) claim() []task {
	if d.botLocal == d.topCache {
		d.topCache = d.top.Load()
		if d.botLocal == d.topCache {
			return nil
		}
	}
	d.stealMu.Lock()
	t := d.top.Load()
	b := d.botLocal
	if t >= b {
		d.stealMu.Unlock()
		d.topCache = t
		return nil
	}
	n := b - t
	if n > claimBatch {
		n = claimBatch
	}
	if int64(cap(d.scratch)) < n {
		d.scratch = make([]task, n)
	}
	s := d.scratch[:n]
	r := d.buf.Load()
	for i := int64(0); i < n; i++ {
		s[i] = r.slots[(t+i)&r.mask]
	}
	d.top.Store(t + n)
	if pub := t + n; pub > d.lastPub {
		// A partial claim leaves [t+n, botLocal) queued; moving bot up to
		// the new top keeps the published window well-formed (top <= bot
		// <= botLocal holds because n was clamped to the queued count).
		d.bot.Store(pub)
		d.lastPub = pub
	}
	d.stealMu.Unlock()
	d.topCache = t + n
	return s
}

// steal takes the oldest published task from this deque on behalf of
// another thread. Any goroutine may call it; stealMu admits one thief at
// a time. The speculative slot read is validated by the top CAS — on a
// lost race (against the owner's popOne taking the last element) the
// read value is discarded.
//
// An uncounted task's node is incremented *before* the CAS: the instant
// top moves, the submitter can observe its deque empty, and it must not
// also observe the node at zero while the stolen task is still in
// flight (both operations are seq-cst, so a submitter that sees the
// moved top sees the increment too). A lost CAS means the owner ran the
// task itself, so the increment must be undone — that settle is returned
// to the caller, because taking the node back to zero may have to wake a
// waiter parked on it.
func (d *taskDeque) steal() (tk task, ok bool, undo *waitNode) {
	d.stealMu.Lock()
	t := d.top.Load()
	b := d.bot.Load()
	if t >= b {
		d.stealMu.Unlock()
		return task{}, false, nil
	}
	r := d.buf.Load()
	tk = r.slots[t&r.mask]
	if !tk.counted {
		tk.node.state.Add(1)
	}
	won := d.top.CompareAndSwap(t, t+1)
	d.stealMu.Unlock()
	if !won {
		if !tk.counted {
			return task{}, false, tk.node
		}
		return task{}, false, nil
	}
	return tk, true, nil
}

// hasPublished reports whether a thief scanning for work should bother
// locking this deque. Cheap screen: two atomic loads, no mutex.
func (d *taskDeque) hasPublished() bool {
	return d.top.Load() < d.bot.Load()
}

// reset readies the deque for a new region at a quiescent point (no
// concurrent owner or thieves). Rings that ballooned during a burst are
// released; retained rings are cleared so closures from the previous
// region do not outlive it via stale slots.
func (d *taskDeque) reset() {
	if r := d.buf.Load(); r != nil && d.botLocal > 0 {
		if len(r.slots) > dequeRetainSize {
			d.buf.Store(nil)
		} else {
			clear(r.slots)
		}
	}
	d.top.Store(0)
	d.bot.Store(0)
	d.botLocal = 0
	d.lastPub = 0
	d.topCache = 0
	d.draining = false
	if d.scratch != nil {
		clear(d.scratch)
	}
	d.pushed = 0
	d.ran = 0
	d.stole = 0
	if d.park == nil {
		d.park = make(chan struct{}, 1)
	}
}
