// Package telemetry is the single instrumentation spine under every
// runtime in this repository. The paper's evaluation is entirely
// *observed behaviour* — its figures are program outputs and its one
// micro-benchmark is a timing comparison — and a cross-model comparison
// is only credible when one measurement harness observes every model.
// This package is that harness: atomic named counters, timed spans with
// begin/end timestamps, instant events, and pluggable sinks.
//
// Three previously disjoint stats systems are now views over it:
//
//   - omp.TaskStats reads its numbers from a telemetry CounterSet the
//     scheduler folds its per-deque counters into;
//   - mpi's traffic counters (Comm.Stats) are plain atomics that the
//     world folds into cluster.* counters when it ends;
//   - trace.Recorder is an ordering view over a telemetry event Stream.
//
// Overhead contract: instrumentation is disabled by default and the hot
// paths stay hot. Runtimes cache Active() once per region/world, so a
// disabled run pays one nil field check per instrumented operation — no
// atomic, no allocation, no call. Enabling costs what it costs; the
// spans and events allocate only while a Collector is installed.
//
// Timestamps come from a vtime.Clock — the process monotonic clock by
// default, a deterministic ManualClock under test, so span durations in
// golden files and assertions never flake on wall-clock jitter.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

// Counter is one named atomic counter. Hot paths resolve a *Counter once
// and Add on it directly; the name lives in the owning CounterSet.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Store overwrites the counter — used by views that fold externally
// accumulated totals in at a quiescent point.
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// CounterSet is a concurrency-safe registry of named counters. The zero
// value is ready to use. Counter() is get-or-create; callers on hot
// paths resolve their counters once and keep the pointers.
type CounterSet struct {
	mu     sync.RWMutex
	byName map[string]*Counter
}

// Counter returns the counter with the given name, creating it at zero
// on first use.
func (s *CounterSet) Counter(name string) *Counter {
	s.mu.RLock()
	c := s.byName[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byName == nil {
		s.byName = map[string]*Counter{}
	}
	if c = s.byName[name]; c == nil {
		c = &Counter{}
		s.byName[name] = c
	}
	return c
}

// Add adds d to the named counter, creating it if needed. Convenience
// for cold paths; hot paths should hold the *Counter.
func (s *CounterSet) Add(name string, d int64) { s.Counter(name).Add(d) }

// Snapshot returns a point-in-time copy of every counter.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.byName))
	for name, c := range s.byName {
		out[name] = c.Load()
	}
	return out
}

// EventType distinguishes the two event shapes in the stream.
type EventType uint8

const (
	// EventSpan is a completed timed interval [Ts, Ts+Dur).
	EventSpan EventType = iota
	// EventInstant is a point occurrence at Ts.
	EventInstant
)

// Arg is one key/value annotation on an event. A slice of Args (rather
// than a map) keeps event construction allocation-light and the export
// order deterministic.
type Arg struct {
	Key, Val string
}

// Event is one element of the telemetry stream.
type Event struct {
	Type  EventType
	Ts    int64  // nanoseconds on the collector's clock
	Dur   int64  // span duration (EventSpan only)
	Cat   string // subsystem category: "omp", "mpi", "trace", ...
	Name  string // event name: "region", "bcast", a trace phase, ...
	Task  int    // emitting thread id or world rank
	Value int64  // optional numeric payload (loop index, byte count)
	Args  []Arg  // optional annotations ("algo": "binomial")
}

// Sink consumes events. Implementations must be safe for concurrent
// Event calls.
type Sink interface {
	Event(Event)
}

// Stream is the in-memory ordered sink: events are appended under one
// lock, so their index is a linearization of the observed execution —
// the property trace.Recorder's ordering assertions are built on. The
// zero value is ready to use.
type Stream struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Sink.
func (s *Stream) Event(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the stream in arrival order.
func (s *Stream) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Len returns the number of events recorded so far.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Reset discards all recorded events.
func (s *Stream) Reset() {
	s.mu.Lock()
	s.events = nil
	s.mu.Unlock()
}

// Collector ties the spine together: a clock, a counter set, and a fixed
// fan-out of sinks. Sinks are set at construction, so emission never
// takes a lock of its own.
type Collector struct {
	clock    vtime.Clock
	counters CounterSet
	sinks    []Sink
}

// Option configures a Collector.
type Option func(*Collector)

// WithClock sets the time source (default: vtime.WallClock).
func WithClock(c vtime.Clock) Option { return func(col *Collector) { col.clock = c } }

// WithSink adds a sink; may be given multiple times.
func WithSink(s Sink) Option { return func(col *Collector) { col.sinks = append(col.sinks, s) } }

// New builds a Collector.
func New(opts ...Option) *Collector {
	col := &Collector{clock: vtime.WallClock{}}
	for _, o := range opts {
		o(col)
	}
	return col
}

// Counters returns the collector's counter set.
func (c *Collector) Counters() *CounterSet { return &c.counters }

// Counter is shorthand for Counters().Counter(name).
func (c *Collector) Counter(name string) *Counter { return c.counters.Counter(name) }

// Now reads the collector's clock.
func (c *Collector) Now() int64 { return c.clock.Now() }

// Emit stamps e with the current time if it carries none and fans it out
// to every sink.
func (c *Collector) Emit(e Event) {
	if e.Ts == 0 {
		e.Ts = c.clock.Now()
	}
	for _, s := range c.sinks {
		s.Event(e)
	}
}

// Instant emits a point event.
func (c *Collector) Instant(cat, name string, task int, value int64) {
	c.Emit(Event{Type: EventInstant, Ts: c.clock.Now(), Cat: cat, Name: name, Task: task, Value: value})
}

// Span is an open timed interval; End closes and emits it. Spans are
// plain values — beginning one allocates nothing beyond its Args.
type Span struct {
	col *Collector
	ev  Event
}

// Begin opens a span. The returned Span must be closed with End by the
// same goroutine (or one that happens-after it).
func (c *Collector) Begin(cat, name string, task int) Span {
	return Span{col: c, ev: Event{Type: EventSpan, Ts: c.clock.Now(), Cat: cat, Name: name, Task: task}}
}

// SetArg annotates the span. Last write wins for a repeated key at
// export time; callers set each key once. A no-op on the zero Span, so
// instrumentation sites can annotate unconditionally.
func (s *Span) SetArg(key, val string) {
	if s.col == nil {
		return
	}
	s.ev.Args = append(s.ev.Args, Arg{Key: key, Val: val})
}

// SetValue sets the span's numeric payload.
func (s *Span) SetValue(v int64) { s.ev.Value = v }

// End stamps the duration and emits the span.
func (s *Span) End() {
	if s.col == nil {
		return
	}
	s.ev.Dur = s.col.clock.Now() - s.ev.Ts
	for _, sink := range s.col.sinks {
		sink.Event(s.ev)
	}
}

// The process-wide active collector. Runtimes cache it at a natural
// scope boundary — omp.Parallel caches per region, mpi.Run per world —
// so their hot loops check a plain field against nil instead of loading
// this atomic per operation. Consequently a collector enabled mid-region
// attaches at the next region/world, not retroactively.
var active atomic.Pointer[Collector]

// Enable installs c as the process-wide collector.
func Enable(c *Collector) { active.Store(c) }

// Disable removes the process-wide collector.
func Disable() { active.Store(nil) }

// Active returns the installed collector, or nil when telemetry is off.
func Active() *Collector { return active.Load() }

// spanStat aggregates one (cat, name) span population for Summarize.
type spanStat struct {
	key      string
	count    int64
	total    int64
	min, max int64
}

// Summarize renders the human-readable text summary the patternlet CLI
// prints under -stats: counters sorted by name, then span populations
// aggregated by category/name with count and total/min/max durations.
func Summarize(events []Event, counters map[string]int64) string {
	var b strings.Builder
	if len(counters) > 0 {
		fmt.Fprintf(&b, "counters:\n")
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %-32s %d\n", name, counters[name])
		}
	}
	stats := map[string]*spanStat{}
	var order []string
	var instants int
	for _, e := range events {
		if e.Type != EventSpan {
			instants++
			continue
		}
		key := e.Cat + "/" + e.Name
		st, ok := stats[key]
		if !ok {
			st = &spanStat{key: key, min: e.Dur, max: e.Dur}
			stats[key] = st
			order = append(order, key)
		}
		st.count++
		st.total += e.Dur
		if e.Dur < st.min {
			st.min = e.Dur
		}
		if e.Dur > st.max {
			st.max = e.Dur
		}
	}
	sort.Strings(order)
	if len(order) > 0 {
		fmt.Fprintf(&b, "spans:\n")
		fmt.Fprintf(&b, "  %-32s %8s %12s %12s %12s\n", "cat/name", "count", "total ns", "min ns", "max ns")
		for _, key := range order {
			st := stats[key]
			fmt.Fprintf(&b, "  %-32s %8d %12d %12d %12d\n", st.key, st.count, st.total, st.min, st.max)
		}
	}
	if instants > 0 {
		fmt.Fprintf(&b, "instants: %d\n", instants)
	}
	if b.Len() == 0 {
		return "(no telemetry recorded)\n"
	}
	return b.String()
}
