package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Registry is a catalog of patternlets keyed by "name.model".
type Registry struct {
	mu   sync.RWMutex
	pats map[string]*Patternlet
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pats: map[string]*Patternlet{}}
}

// Register validates and adds a patternlet. Duplicate keys are rejected.
func (r *Registry) Register(p *Patternlet) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := p.Key()
	if _, dup := r.pats[key]; dup {
		return fmt.Errorf("core: duplicate patternlet %q", key)
	}
	r.pats[key] = p
	return nil
}

// MustRegister is Register that panics on error; collection uses it at
// package init so a malformed catalog fails fast.
func (r *Registry) MustRegister(p *Patternlet) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Get returns the patternlet with the given key ("name.model").
func (r *Registry) Get(key string) (*Patternlet, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pats[key]
	return p, ok
}

// All returns every patternlet, sorted by key.
func (r *Registry) All() []*Patternlet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Patternlet, 0, len(r.pats))
	for _, p := range r.pats {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// ByModel returns the patternlets for one model, sorted by name.
func (r *Registry) ByModel(m Model) []*Patternlet {
	var out []*Patternlet
	for _, p := range r.All() {
		if p.Model == m {
			out = append(out, p)
		}
	}
	return out
}

// ByPattern returns the patternlets that teach the given pattern.
func (r *Registry) ByPattern(pat Pattern) []*Patternlet {
	var out []*Patternlet
	for _, p := range r.All() {
		for _, q := range p.Patterns {
			if q == pat {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// Counts returns the number of patternlets per model — the composition
// table from the paper's abstract (16 MPI, 17 OpenMP, 9 Pthreads, 2
// heterogeneous).
func (r *Registry) Counts() map[Model]int {
	out := map[Model]int{}
	for _, p := range r.All() {
		out[p.Model]++
	}
	return out
}

// Len returns the total number of registered patternlets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pats)
}

// Fingerprint hashes the catalog's observable shape — every key, model,
// determinism tag, task defaults, and directive table in sorted key
// order — into a short hex string. The run store folds it into every
// content digest as the "catalog version": registering, removing, or
// reshaping a patternlet changes the fingerprint and therefore invalidates
// all cached results, without any manually-bumped version constant.
func (r *Registry) Fingerprint() string {
	h := fnv.New64a()
	for _, p := range r.All() {
		fmt.Fprintf(h, "%s|%s|det=%t|min=%d|def=%d", p.Key(), p.Model, p.Deterministic, p.MinTasks, p.DefaultTasks)
		for _, d := range p.Directives {
			fmt.Fprintf(h, "|%s=%t", d.Name, d.Default)
		}
		for _, pr := range p.Params {
			fmt.Fprintf(h, "|p:%s=%d[%d,%d]", pr.Name, pr.Default, pr.Min, pr.Max)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RunOptions configures one execution of a patternlet through
// Registry.Run — the single invocation path every front end (the
// patternlet CLI, mpirun's per-rank workers, benchjson's telemetry
// probe, and the patternletd HTTP service) goes through.
type RunOptions struct {
	NumTasks    int             // 0 = patternlet default
	Toggles     map[string]bool // overrides for declared directives
	Params      map[string]int  // overrides for declared run parameters (problem sizes)
	Seed        int64           // PRNG seed for randomized patternlets; 0 = core.DefaultSeed
	UseTCP      bool            // run MPI worlds over loopback TCP
	Nodes       int             // simulated cluster nodes; 0 = one per process
	RecvTimeout time.Duration   // MPI deadlock bound; 0 = the ctx deadline, else block forever
	Remote      *RemoteExec     // non-nil when this process hosts one rank of a multi-process world

	// Stream, when non-nil, receives the run's output live in addition
	// to the buffered capture that fills Result.Output — the CLI passes
	// stdout here so interactive runs still print as they go.
	Stream io.Writer

	// Trace, when non-nil, is a caller-owned phase recorder: the
	// patternlet's rc.Record calls land in it (and in Result.Phases)
	// without engaging the process-wide telemetry spine. Ignored when
	// Collect also instruments the run.
	Trace *trace.Recorder

	// Collect enables the telemetry spine for this run: Result.Events,
	// Result.Counters and Result.Phases are filled from a run-private
	// collector. Because the runtimes attach to one process-wide
	// collector, instrumented runs are serialized against all other
	// Registry.Run calls (a write lock on the spine); uninstrumented
	// runs share a read lock and execute concurrently.
	Collect bool
}

// Result is everything one execution produced.
type Result struct {
	Key      string        // registry key that ran
	NumTasks int           // resolved task count (after defaults)
	Elapsed  time.Duration // wall-clock duration of the Run body
	Output   string        // buffered SafeWriter capture (see NewCapture)

	// Phases holds the patternlet's own rc.Record events, when either a
	// caller recorder (RunOptions.Trace) or Collect was active.
	Phases []trace.Event

	// Events and Counters are the telemetry spine's view of the run,
	// filled only when RunOptions.Collect was set: every runtime span
	// and instant in stream order, and the final counter snapshot.
	// Render them with telemetry.Summarize or telemetry.WriteChromeTrace.
	Events   []telemetry.Event
	Counters map[string]int64
}

// teleGate serializes instrumented runs against every other run: the
// runtimes cache the process-wide telemetry collector per region/world,
// so two concurrent collectors — or an uninstrumented run executing
// while another run's collector is installed — would cross-contaminate
// streams. Collect takes the write side; plain runs share the read side
// and stay fully concurrent with each other.
var teleGate sync.RWMutex

// Run executes the patternlet with the given options under ctx and
// returns the captured Result. A ctx deadline or cancellation stops the
// run: context-aware runtimes (omp regions via WithContext) observe it
// within one scheduling poll, and MPI receives inherit the deadline as
// their RecvTimeout unless one was set explicitly. The partial Result is
// returned alongside the error.
func (r *Registry) Run(ctx context.Context, key string, opts RunOptions) (Result, error) {
	p, ok := r.Get(key)
	if !ok {
		return Result{Key: key}, fmt.Errorf("core: no patternlet %q", key)
	}
	return runPatternlet(ctx, p, opts)
}

// runPatternlet is the one execution path under Registry.Run.
func runPatternlet(ctx context.Context, p *Patternlet, opts RunOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{Key: p.Key()}
	n, err := p.CheckOptions(opts)
	if err != nil {
		return res, err
	}
	res.NumTasks = n
	if err := ctx.Err(); err != nil {
		// A queued job whose client already gave up: don't start at all.
		return res, fmt.Errorf("core: run %q: %w", p.Key(), err)
	}
	recvTimeout := opts.RecvTimeout
	if recvTimeout == 0 {
		// MPI patternlets have no chunk boundaries to poll a context at;
		// bounding every blocking receive by the ctx deadline gives them
		// equivalent timeout semantics for free.
		if dl, ok := ctx.Deadline(); ok {
			recvTimeout = time.Until(dl)
			if recvTimeout <= 0 {
				recvTimeout = time.Nanosecond
			}
		}
	}
	w := NewCapture(opts.Stream)
	rc := &RunContext{
		W:           w,
		Ctx:         ctx,
		NumTasks:    n,
		Toggles:     opts.Toggles,
		Params:      opts.Params,
		Seed:        opts.Seed,
		Trace:       opts.Trace,
		UseTCP:      opts.UseTCP,
		Nodes:       opts.Nodes,
		RecvTimeout: recvTimeout,
		Remote:      opts.Remote,
		pl:          p,
	}

	var stream *telemetry.Stream
	var col *telemetry.Collector
	if opts.Collect {
		teleGate.Lock()
		defer teleGate.Unlock()
		stream = &telemetry.Stream{}
		col = telemetry.New(telemetry.WithSink(stream))
		telemetry.Enable(col)
		defer telemetry.Disable()
		if rc.Trace == nil {
			rc.Trace = trace.Attach(col, stream)
		}
	} else {
		teleGate.RLock()
		defer teleGate.RUnlock()
	}

	start := time.Now()
	err = p.Run(rc)
	res.Elapsed = time.Since(start)
	res.Output = w.Captured()
	if rc.Trace != nil {
		res.Phases = rc.Trace.Events()
	}
	if opts.Collect {
		res.Events = stream.Events()
		res.Counters = col.Counters().Snapshot()
	}
	if err != nil {
		return res, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The body unwound because the context fired (a cancelled omp
		// region returns no error of its own); surface the cause.
		return res, fmt.Errorf("core: run %q: %w", p.Key(), cerr)
	}
	return res, nil
}

// Lines splits captured output into non-empty trimmed lines, a convenience
// for figure comparisons (the paper's figures show only the message
// lines).
func Lines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		l = strings.TrimSpace(l)
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
