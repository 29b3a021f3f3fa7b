// Package core is the patternlet framework — the paper's primary
// contribution. A patternlet is a minimalist, scalable, syntactically
// correct program that demonstrates one parallel design pattern (§III).
// This package defines what a patternlet *is* in this reproduction:
//
//   - metadata: name, programming model, the design pattern(s) it teaches,
//     a synopsis, and the student exercise from the source file's header
//     comment;
//   - directives: the named "#pragma" lines that the classroom demo
//     toggles between commented-out and enabled — uncommenting a pragma in
//     the paper becomes enabling a named toggle here, preserving the
//     before/after contrast that drives the pedagogy;
//   - a Run function that executes the program with a given task count,
//     writing the same output the paper's figures show.
//
// The Registry holds the full collection (44 programs: 16 MPI, 17 OpenMP,
// 9 Pthreads, 2 heterogeneous — the composition reported in the
// abstract), which package collection populates.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Model identifies the parallel programming model a patternlet targets.
type Model string

// The four models in the paper's collection.
const (
	OpenMP   Model = "OpenMP"
	MPI      Model = "MPI"
	Pthreads Model = "Pthreads"
	Hybrid   Model = "MPI+OpenMP"
)

// suffix gives the registry key suffix for each model.
func (m Model) suffix() string {
	switch m {
	case OpenMP:
		return "omp"
	case MPI:
		return "mpi"
	case Pthreads:
		return "pthreads"
	case Hybrid:
		return "hybrid"
	}
	return "unknown"
}

// Layer is the catalog level of a pattern in the UIUC / Berkeley-Intel
// (OPL) hierarchies the paper cites in §II.B: architectural patterns at
// the top, algorithm-strategy patterns in the middle, implementation
// patterns at the bottom.
type Layer int

// The three layers.
const (
	ArchitecturalLayer Layer = iota
	AlgorithmLayer
	ImplementationLayer
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case ArchitecturalLayer:
		return "architectural"
	case AlgorithmLayer:
		return "algorithm-strategy"
	case ImplementationLayer:
		return "implementation"
	}
	return "unknown"
}

// Pattern is a named parallel design pattern.
type Pattern string

// The patterns the collection teaches, with the paper's own examples of
// each layer (§II.B names N-Body Problems and Monte Carlo as high level,
// Data/Task Decomposition as mid level, Barrier/Reduction/Message Passing
// as low level).
const (
	SPMD              Pattern = "SPMD"
	ForkJoin          Pattern = "Fork-Join"
	BarrierPattern    Pattern = "Barrier"
	ParallelLoop      Pattern = "Parallel Loop"
	Reduction         Pattern = "Reduction"
	MasterWorker      Pattern = "Master-Worker"
	MessagePassing    Pattern = "Message Passing"
	Broadcast         Pattern = "Broadcast"
	Scatter           Pattern = "Scatter"
	Gather            Pattern = "Gather"
	MutualExclusion   Pattern = "Mutual Exclusion"
	CriticalSection   Pattern = "Critical Section"
	AtomicUpdate      Pattern = "Atomic Update"
	DataDecomposition Pattern = "Data Decomposition"
	TaskDecomposition Pattern = "Task Decomposition"
	ProducerConsumer  Pattern = "Producer-Consumer"
	MonteCarlo        Pattern = "Monte Carlo"
	NBody             Pattern = "N-Body Problems"
)

// patternLayers places each pattern in the hierarchy.
var patternLayers = map[Pattern]Layer{
	MonteCarlo:        ArchitecturalLayer,
	NBody:             ArchitecturalLayer,
	DataDecomposition: AlgorithmLayer,
	TaskDecomposition: AlgorithmLayer,
	MasterWorker:      AlgorithmLayer,
	ProducerConsumer:  AlgorithmLayer,
	ParallelLoop:      AlgorithmLayer,
	SPMD:              ImplementationLayer,
	ForkJoin:          ImplementationLayer,
	BarrierPattern:    ImplementationLayer,
	Reduction:         ImplementationLayer,
	MessagePassing:    ImplementationLayer,
	Broadcast:         ImplementationLayer,
	Scatter:           ImplementationLayer,
	Gather:            ImplementationLayer,
	MutualExclusion:   ImplementationLayer,
	CriticalSection:   ImplementationLayer,
	AtomicUpdate:      ImplementationLayer,
}

// Layer returns the catalog layer of the pattern.
func (p Pattern) Layer() Layer {
	if l, ok := patternLayers[p]; ok {
		return l
	}
	return ImplementationLayer
}

// Patterns returns every cataloged pattern, sorted by name.
func Patterns() []Pattern {
	out := make([]Pattern, 0, len(patternLayers))
	for p := range patternLayers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Directive models one toggleable pragma/construct in a patternlet: the
// line the instructor uncomments live in class. Default is the state the
// source ships in (the paper's patternlets ship with the key directive
// commented out, so the "before" behaviour shows first).
type Directive struct {
	Name    string // toggle name, e.g. "barrier"
	Pragma  string // the C construct it models, e.g. "#pragma omp barrier"
	Default bool   // enabled state before any toggling
}

// Param declares one integer run parameter of a patternlet: a named
// problem-size knob (a sequence length, a band width, a block size) with
// a shipped default and a validated range. Parameters are to problem
// size what Directives are to program structure: declared up front,
// resolved against defaults, validated before a run starts, and folded
// into the run store's content address — so discovery (`patternlet
// list`, GET /patternlets) can expose every tunable size without anyone
// reading source, and `n=512` never shares a cache entry with `n=4096`.
type Param struct {
	Name    string // parameter name, e.g. "n"
	Doc     string // one-line description for discovery listings
	Default int    // value used when the caller does not set one
	Min     int    // smallest accepted value (inclusive)
	Max     int    // largest accepted value (inclusive)
}

// Patternlet is one program of the collection.
type Patternlet struct {
	Name         string // base name, e.g. "spmd" — Key() adds the model suffix
	Model        Model
	Patterns     []Pattern
	Synopsis     string      // one-line description
	Exercise     string      // the header-comment student exercise
	Directives   []Directive // toggleable constructs, if any
	Params       []Param     // declared run parameters, if any
	MinTasks     int         // smallest meaningful task count (default 1)
	DefaultTasks int         // task count used when the caller passes 0
	Run          func(rc *RunContext) error

	// Deterministic declares that the patternlet's captured Output is
	// byte-identical for a fixed (tasks, toggles, seed) — no scheduling-
	// dependent line interleaving, no wall-clock values in the output, no
	// unseeded randomness — under EVERY toggle combination, not just the
	// defaults. That guarantee is what makes a run content-addressable:
	// the serving layer's run store only caches patternlets tagged here,
	// and the collection's determinism test re-executes each tagged one
	// and pins byte-identity. Untagged (zero-value false) means "assume
	// timing-nondeterministic", the safe default for anything that lets
	// concurrent tasks race to the SafeWriter.
	Deterministic bool
}

// Key returns the registry key, e.g. "spmd.omp" or "barrier.mpi".
func (p *Patternlet) Key() string { return p.Name + "." + p.Model.suffix() }

// Validate checks the patternlet's metadata for registration.
func (p *Patternlet) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("core: patternlet has no name")
	case p.Model == "":
		return fmt.Errorf("core: patternlet %q has no model", p.Name)
	case len(p.Patterns) == 0:
		return fmt.Errorf("core: patternlet %q teaches no patterns", p.Name)
	case p.Synopsis == "":
		return fmt.Errorf("core: patternlet %q has no synopsis", p.Name)
	case p.Exercise == "":
		return fmt.Errorf("core: patternlet %q has no exercise", p.Name)
	case p.Run == nil:
		return fmt.Errorf("core: patternlet %q has no Run function", p.Name)
	}
	seen := map[string]bool{}
	for _, d := range p.Directives {
		if d.Name == "" {
			return fmt.Errorf("core: patternlet %q has an unnamed directive", p.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("core: patternlet %q has duplicate directive %q", p.Name, d.Name)
		}
		seen[d.Name] = true
	}
	seenP := map[string]bool{}
	for _, pr := range p.Params {
		switch {
		case pr.Name == "":
			return fmt.Errorf("core: patternlet %q has an unnamed param", p.Name)
		case seenP[pr.Name]:
			return fmt.Errorf("core: patternlet %q has duplicate param %q", p.Name, pr.Name)
		case pr.Min > pr.Max:
			return fmt.Errorf("core: patternlet %q param %q has min %d > max %d", p.Name, pr.Name, pr.Min, pr.Max)
		case pr.Default < pr.Min || pr.Default > pr.Max:
			return fmt.Errorf("core: patternlet %q param %q default %d outside [%d, %d]",
				p.Name, pr.Name, pr.Default, pr.Min, pr.Max)
		}
		seenP[pr.Name] = true
	}
	return nil
}

// ValidateParams checks caller-supplied parameter overrides against the
// declared set: an unknown name or an out-of-range value is an error.
func (p *Patternlet) ValidateParams(params map[string]int) error {
	for name, v := range params {
		decl, ok := p.param(name)
		if !ok {
			return fmt.Errorf("core: patternlet %q has no param %q", p.Key(), name)
		}
		if v < decl.Min || v > decl.Max {
			return fmt.Errorf("core: patternlet %q param %q = %d outside [%d, %d]",
				p.Key(), name, v, decl.Min, decl.Max)
		}
	}
	return nil
}

// ResolveTasks returns the task count a run requesting n would actually
// execute with: n itself, the patternlet's default when n is 0, and the
// paper's quad-core default when the patternlet declares none. This is
// the same resolution Registry.Run applies; the run store uses it so a
// request for "tasks":0 and an explicit request for the default count
// content-address to the same cache entry.
func (p *Patternlet) ResolveTasks(n int) int {
	if n == 0 {
		n = p.DefaultTasks
	}
	if n == 0 {
		n = 4
	}
	return n
}

// MaxTasks bounds the task count and the simulated node count one run
// may ask for. Shipped defaults stop at 10 tasks and the largest test
// world has 32 ranks; the bound stops a single request from launching a
// million-rank world or naming a billion simulated nodes.
const MaxTasks = 256

// CheckOptions validates opts against the patternlet — declared
// directives and params, tasks and nodes in [0, MaxTasks], the resolved
// task count at least MinTasks — and returns that resolved count.
// Registry.Run applies it before running and the HTTP service before
// admission, so a bad request fails the same way everywhere.
func (p *Patternlet) CheckOptions(opts RunOptions) (tasks int, err error) {
	for name := range opts.Toggles {
		if _, ok := p.directive(name); !ok {
			return 0, fmt.Errorf("core: patternlet %q has no directive %q", p.Key(), name)
		}
	}
	if err := p.ValidateParams(opts.Params); err != nil {
		return 0, err
	}
	if opts.NumTasks < 0 || opts.NumTasks > MaxTasks {
		return 0, fmt.Errorf("core: tasks must be in [0, %d], got %d", MaxTasks, opts.NumTasks)
	}
	if opts.Nodes < 0 || opts.Nodes > MaxTasks {
		return 0, fmt.Errorf("core: nodes must be in [0, %d], got %d", MaxTasks, opts.Nodes)
	}
	n := p.ResolveTasks(opts.NumTasks)
	if min := max(p.MinTasks, 1); n < min {
		return 0, fmt.Errorf("core: patternlet %q needs at least %d tasks, got %d", p.Key(), min, n)
	}
	return n, nil
}

// DirectiveState is one resolved toggle: the directive's name and the
// enabled state a run would observe for it.
type DirectiveState struct {
	Name    string
	Enabled bool
}

// EffectiveDirectives resolves what every declared directive evaluates
// to under the given overrides — the override when present, the shipped
// default otherwise — sorted by name. Two requests that spell the same
// effective configuration differently (one relying on a default, one
// setting it explicitly) resolve identically, which is what lets the run
// store's digest treat them as the same run.
func (p *Patternlet) EffectiveDirectives(toggles map[string]bool) []DirectiveState {
	out := make([]DirectiveState, 0, len(p.Directives))
	for _, d := range p.Directives {
		on := d.Default
		if v, ok := toggles[d.Name]; ok {
			on = v
		}
		out = append(out, DirectiveState{Name: d.Name, Enabled: on})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParamState is one resolved run parameter: its name and the value a run
// would observe for it.
type ParamState struct {
	Name  string
	Value int
}

// EffectiveParams resolves what every declared parameter evaluates to
// under the given overrides — the override when present, the declared
// default otherwise — sorted by name. Like EffectiveDirectives, this is
// the resolution the run store hashes: a request relying on the default
// and one spelling it explicitly content-address to the same entry,
// while any genuinely different value gets its own digest.
func (p *Patternlet) EffectiveParams(params map[string]int) []ParamState {
	out := make([]ParamState, 0, len(p.Params))
	for _, decl := range p.Params {
		v := decl.Default
		if o, ok := params[decl.Name]; ok {
			v = o
		}
		out = append(out, ParamState{Name: decl.Name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// param returns the parameter named name, if declared.
func (p *Patternlet) param(name string) (Param, bool) {
	for _, pr := range p.Params {
		if pr.Name == name {
			return pr, true
		}
	}
	return Param{}, false
}

// directive returns the directive named name, if declared.
func (p *Patternlet) directive(name string) (Directive, bool) {
	for _, d := range p.Directives {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// RunContext is everything a patternlet's Run receives.
type RunContext struct {
	W        *SafeWriter     // concurrent-safe output sink
	Ctx      context.Context // run-scoped cancellation; never nil under Registry.Run
	NumTasks int             // number of threads/processes (>= 1; Runner applies defaults)
	Toggles  map[string]bool
	Params   map[string]int  // overrides for declared run parameters
	Seed     int64           // caller-chosen PRNG seed; 0 = the shipped default (see BaseSeed)
	Trace    *trace.Recorder // optional; patternlets record phases when non-nil

	// MPI execution options, used by MPI and hybrid patternlets.
	UseTCP      bool
	Nodes       int           // simulated cluster nodes; 0 = one per process
	RecvTimeout time.Duration // deadlock detection bound; 0 = block forever
	Remote      *RemoteExec   // non-nil when this process hosts one rank of a multi-process world

	pl *Patternlet
}

// Context returns the run's cancellation context, Background when the
// RunContext was built by hand without one. Patternlet bodies pass it to
// the runtimes (omp.WithContext) so a caller-side timeout actually stops
// the running region.
func (rc *RunContext) Context() context.Context {
	if rc.Ctx == nil {
		return context.Background()
	}
	return rc.Ctx
}

// DefaultSeed seeds every patternlet PRNG when the caller does not choose
// one — the fixed value the randomized patternlets have always shipped
// with, so default runs stay reproducible (and cacheable) across
// processes.
const DefaultSeed = 42

// BaseSeed resolves the run's PRNG seed: the caller's RunOptions.Seed
// when set, DefaultSeed otherwise. Patternlets that use randomness must
// seed from here (never time or math/rand's global state) to keep a
// Deterministic tag honest.
func (rc *RunContext) BaseSeed() int64 {
	if rc.Seed != 0 {
		return rc.Seed
	}
	return DefaultSeed
}

// Enabled reports whether the named directive is on: the explicit toggle
// if the caller set one, the directive's shipped default otherwise.
// Asking about an undeclared directive is a programming error in the
// patternlet and panics, so the catalog tests catch it immediately.
func (rc *RunContext) Enabled(name string) bool {
	if v, ok := rc.Toggles[name]; ok {
		return v
	}
	if rc.pl != nil {
		if d, ok := rc.pl.directive(name); ok {
			return d.Default
		}
		panic(fmt.Sprintf("core: patternlet %q queried undeclared directive %q", rc.pl.Name, name))
	}
	return false
}

// Param returns the run's value for the named declared parameter: the
// explicit override if the caller set one, the declared default
// otherwise. Asking about an undeclared parameter is a programming error
// in the patternlet and panics, mirroring Enabled, so the catalog tests
// catch it immediately.
func (rc *RunContext) Param(name string) int {
	if v, ok := rc.Params[name]; ok {
		return v
	}
	if rc.pl != nil {
		if decl, ok := rc.pl.param(name); ok {
			return decl.Default
		}
		panic(fmt.Sprintf("core: patternlet %q queried undeclared param %q", rc.pl.Name, name))
	}
	return 0
}

// Record traces an event if tracing is active.
func (rc *RunContext) Record(task int, phase string, value int) {
	if rc.Trace != nil {
		rc.Trace.Record(task, phase, value)
	}
}

// SafeWriter serializes concurrent writes. Each Printf is one atomic
// write — the same guarantee a glibc printf of a short line gives the C
// patternlets, and what makes interleaved-but-uncorrupted output like
// Figure 8 possible.
//
// A SafeWriter built with NewCapture additionally runs in buffered
// capture mode: every write is appended to an internal buffer under the
// same lock that serializes the writes, so the captured transcript is
// byte-for-byte deterministic for single-threaded patternlets and
// line-stable (each Printf intact and uncorrupted, only the interleaving
// order varying) for multi-threaded ones. Registry.Run captures every
// run this way to fill Result.Output.
type SafeWriter struct {
	mu  sync.Mutex
	w   io.Writer     // live sink; may be nil in pure capture mode
	buf *bytes.Buffer // non-nil in capture mode
}

// NewSafeWriter wraps w for concurrent use.
func NewSafeWriter(w io.Writer) *SafeWriter {
	return &SafeWriter{w: w}
}

// NewCapture returns a SafeWriter in buffered capture mode. tee, when
// non-nil, additionally receives every write live (the CLI streams to
// stdout while the run is still captured for the Result).
func NewCapture(tee io.Writer) *SafeWriter {
	return &SafeWriter{w: tee, buf: &bytes.Buffer{}}
}

// Printf formats and writes atomically.
func (s *SafeWriter) Printf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		fmt.Fprintf(s.w, format, args...)
		return
	}
	start := s.buf.Len()
	fmt.Fprintf(s.buf, format, args...)
	if s.w != nil {
		s.w.Write(s.buf.Bytes()[start:])
	}
}

// Write implements io.Writer (whole-buffer atomic).
func (s *SafeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf != nil {
		s.buf.Write(p)
		if s.w != nil {
			s.w.Write(p)
		}
		return len(p), nil
	}
	return s.w.Write(p)
}

// Captured returns everything written so far to a capture-mode writer,
// the empty string otherwise. Safe to call concurrently with writers,
// though the run harness only reads it after the run completes.
func (s *SafeWriter) Captured() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		return ""
	}
	return s.buf.String()
}
