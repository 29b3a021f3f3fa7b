package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// captureRun mirrors the old Capture helper on the single Run API: run
// and return the buffered output.
func captureRun(r *Registry, key string, opts RunOptions) (string, error) {
	res, err := r.Run(context.Background(), key, opts)
	return res.Output, err
}

func testPatternlet(name string, model Model) *Patternlet {
	return &Patternlet{
		Name:     name,
		Model:    model,
		Patterns: []Pattern{SPMD},
		Synopsis: "test synopsis",
		Exercise: "test exercise",
		Run: func(rc *RunContext) error {
			rc.W.Printf("ran %s with %d tasks\n", name, rc.NumTasks)
			return nil
		},
	}
}

func TestKeyUsesModelSuffix(t *testing.T) {
	cases := map[Model]string{
		OpenMP:   "x.omp",
		MPI:      "x.mpi",
		Pthreads: "x.pthreads",
		Hybrid:   "x.hybrid",
	}
	for model, want := range cases {
		p := testPatternlet("x", model)
		if p.Key() != want {
			t.Errorf("Key for %s = %q, want %q", model, p.Key(), want)
		}
	}
}

func TestValidateCatchesMissingFields(t *testing.T) {
	base := func() *Patternlet { return testPatternlet("v", OpenMP) }
	good := base()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid patternlet rejected: %v", err)
	}
	mutations := map[string]func(*Patternlet){
		"name":     func(p *Patternlet) { p.Name = "" },
		"model":    func(p *Patternlet) { p.Model = "" },
		"patterns": func(p *Patternlet) { p.Patterns = nil },
		"synopsis": func(p *Patternlet) { p.Synopsis = "" },
		"exercise": func(p *Patternlet) { p.Exercise = "" },
		"run":      func(p *Patternlet) { p.Run = nil },
	}
	for field, mutate := range mutations {
		p := base()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("missing %s not caught", field)
		}
	}
}

func TestValidateDirectives(t *testing.T) {
	p := testPatternlet("d", OpenMP)
	p.Directives = []Directive{{Name: "a"}, {Name: "a"}}
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate directive accepted")
	}
	p.Directives = []Directive{{Name: ""}}
	if err := p.Validate(); err == nil {
		t.Fatal("unnamed directive accepted")
	}
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("a", OpenMP)
	if err := r.Register(p); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get("a.omp")
	if !ok || got != p {
		t.Fatal("Get failed")
	}
	if _, ok := r.Get("missing.omp"); ok {
		t.Fatal("Get of missing key succeeded")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(testPatternlet("a", OpenMP)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testPatternlet("a", OpenMP)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	// Same name, different model is fine.
	if err := r.Register(testPatternlet("a", MPI)); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	bad := testPatternlet("b", OpenMP)
	bad.Synopsis = ""
	if err := r.Register(bad); err == nil {
		t.Fatal("invalid patternlet accepted")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister of invalid patternlet did not panic")
		}
	}()
	bad := testPatternlet("b", OpenMP)
	bad.Run = nil
	r.MustRegister(bad)
}

func TestAllSortedAndFilters(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testPatternlet("zeta", OpenMP))
	r.MustRegister(testPatternlet("alpha", MPI))
	r.MustRegister(testPatternlet("alpha", OpenMP))
	all := r.All()
	if len(all) != 3 {
		t.Fatalf("All = %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key() >= all[i].Key() {
			t.Fatal("All not sorted by key")
		}
	}
	if got := r.ByModel(OpenMP); len(got) != 2 {
		t.Fatalf("ByModel(OpenMP) = %d", len(got))
	}
	if got := r.ByPattern(SPMD); len(got) != 3 {
		t.Fatalf("ByPattern(SPMD) = %d", len(got))
	}
	if got := r.ByPattern(Gather); len(got) != 0 {
		t.Fatalf("ByPattern(Gather) = %d", len(got))
	}
	counts := r.Counts()
	if counts[OpenMP] != 2 || counts[MPI] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRunAppliesDefaultTasks(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("deft", OpenMP)
	p.DefaultTasks = 6
	r.MustRegister(p)
	out, err := captureRun(r, "deft.omp", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "with 6 tasks") {
		t.Fatalf("output %q", out)
	}
	// Explicit count overrides the default.
	out, err = captureRun(r, "deft.omp", RunOptions{NumTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "with 2 tasks") {
		t.Fatalf("output %q", out)
	}
}

func TestRunFallsBackToQuadCoreDefault(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testPatternlet("nodefault", OpenMP))
	out, err := captureRun(r, "nodefault.omp", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "with 4 tasks") {
		t.Fatalf("output %q", out)
	}
}

func TestRunEnforcesMinTasks(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("min", MPI)
	p.MinTasks = 2
	r.MustRegister(p)
	if _, err := captureRun(r, "min.mpi", RunOptions{NumTasks: 1}); err == nil {
		t.Fatal("below MinTasks accepted")
	}
	if _, err := captureRun(r, "min.mpi", RunOptions{NumTasks: 2}); err != nil {
		t.Fatal(err)
	}
}

// Task and node counts outside [0, MaxTasks] are rejected before the
// body starts; the bound itself is accepted. CheckOptions returns the
// resolved count Registry.Run reports.
func TestRunBoundsTasksAndNodes(t *testing.T) {
	r := NewRegistry()
	started := 0
	p := testPatternlet("big", MPI)
	p.Run = func(rc *RunContext) error { started++; return nil }
	r.MustRegister(p)
	for _, opts := range []RunOptions{
		{NumTasks: -1},
		{NumTasks: MaxTasks + 1},
		{NumTasks: 1000000},
		{Nodes: -1},
		{Nodes: MaxTasks + 1},
		{Nodes: 1000000000},
	} {
		if _, err := r.Run(context.Background(), "big.mpi", opts); err == nil {
			t.Errorf("Run(%+v) accepted", opts)
		}
	}
	if started != 0 {
		t.Fatalf("body ran %d times for rejected options", started)
	}
	res, err := r.Run(context.Background(), "big.mpi", RunOptions{NumTasks: MaxTasks, Nodes: MaxTasks})
	if err != nil || res.NumTasks != MaxTasks {
		t.Fatalf("Run at the bound = (%d tasks, %v)", res.NumTasks, err)
	}
	if n, err := p.CheckOptions(RunOptions{}); err != nil || n != 4 {
		t.Fatalf("CheckOptions(default) = (%d, %v), want (4, nil)", n, err)
	}
}

func TestRunUnknownKey(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Run(context.Background(), "nope.omp", RunOptions{}); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestRunRejectsUnknownToggle(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testPatternlet("t", OpenMP))
	_, err := captureRun(r, "t.omp", RunOptions{Toggles: map[string]bool{"bogus": true}})
	if err == nil {
		t.Fatal("unknown toggle accepted")
	}
}

func TestEnabledUsesDirectiveDefaultsAndOverrides(t *testing.T) {
	r := NewRegistry()
	var onDefault, offDefault bool
	p := &Patternlet{
		Name: "tog", Model: OpenMP, Patterns: []Pattern{SPMD},
		Synopsis: "s", Exercise: "e",
		Directives: []Directive{
			{Name: "shipsOn", Default: true},
			{Name: "shipsOff", Default: false},
		},
		Run: func(rc *RunContext) error {
			onDefault = rc.Enabled("shipsOn")
			offDefault = rc.Enabled("shipsOff")
			return nil
		},
	}
	r.MustRegister(p)
	if _, err := captureRun(r, "tog.omp", RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !onDefault || offDefault {
		t.Fatalf("defaults: shipsOn=%v shipsOff=%v", onDefault, offDefault)
	}
	if _, err := captureRun(r, "tog.omp", RunOptions{Toggles: map[string]bool{"shipsOn": false, "shipsOff": true}}); err != nil {
		t.Fatal(err)
	}
	if onDefault || !offDefault {
		t.Fatalf("overrides: shipsOn=%v shipsOff=%v", onDefault, offDefault)
	}
}

func TestEnabledPanicsOnUndeclaredDirective(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("undeclared", OpenMP)
	p.Run = func(rc *RunContext) error {
		rc.Enabled("never-declared")
		return nil
	}
	r.MustRegister(p)
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared directive query did not panic")
		}
	}()
	_, _ = captureRun(r, "undeclared.omp", RunOptions{})
}

func TestRecordIsOptional(t *testing.T) {
	rc := &RunContext{}
	rc.Record(0, "phase", 1) // must not panic with nil Trace
	rec := &trace.Recorder{}
	rc.Trace = rec
	rc.Record(0, "phase", 1)
	if rec.Len() != 1 {
		t.Fatal("Record did not reach the recorder")
	}
}

func TestLines(t *testing.T) {
	got := Lines("\n a \n\n b\n\t\nc\n")
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("Lines = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lines = %v", got)
		}
	}
	if Lines("") != nil {
		t.Fatal("Lines of empty input should be nil")
	}
}

func TestSafeWriterConcurrentLinesUncorrupted(t *testing.T) {
	var buf bytes.Buffer
	w := NewSafeWriter(&buf)
	const workers, lines = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < lines; j++ {
				w.Printf("worker-%d-line\n", i)
			}
		}(i)
	}
	wg.Wait()
	out := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(out) != workers*lines {
		t.Fatalf("%d lines, want %d", len(out), workers*lines)
	}
	for _, l := range out {
		if !strings.HasPrefix(l, "worker-") || !strings.HasSuffix(l, "-line") {
			t.Fatalf("corrupted line %q", l)
		}
	}
}

func TestPatternLayers(t *testing.T) {
	cases := map[Pattern]Layer{
		MonteCarlo:         ArchitecturalLayer,
		NBody:              ArchitecturalLayer,
		DataDecomposition:  AlgorithmLayer,
		MasterWorker:       AlgorithmLayer,
		BarrierPattern:     ImplementationLayer,
		Reduction:          ImplementationLayer,
		MessagePassing:     ImplementationLayer,
		Pattern("unknown"): ImplementationLayer,
	}
	for p, want := range cases {
		if p.Layer() != want {
			t.Errorf("%s layer = %v, want %v", p, p.Layer(), want)
		}
	}
	for _, l := range []Layer{ArchitecturalLayer, AlgorithmLayer, ImplementationLayer} {
		if l.String() == "unknown" {
			t.Errorf("layer %d has no name", l)
		}
	}
	if Layer(99).String() != "unknown" {
		t.Error("invalid layer should stringify as unknown")
	}
}

func TestPatternsSortedAndComplete(t *testing.T) {
	ps := Patterns()
	if len(ps) < 15 {
		t.Fatalf("only %d cataloged patterns", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Fatal("Patterns not sorted")
		}
	}
}

func TestRunPropagatesTraceAndTasks(t *testing.T) {
	rec := &trace.Recorder{}
	r := NewRegistry()
	p := testPatternlet("tr", OpenMP)
	p.Run = func(rc *RunContext) error {
		rc.Record(rc.NumTasks, "seen", 0)
		return nil
	}
	r.MustRegister(p)
	res, err := r.Run(context.Background(), "tr.omp", RunOptions{NumTasks: 3, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	ev := rec.Events()
	if len(ev) != 1 || ev[0].Task != 3 {
		t.Fatalf("trace events %v", ev)
	}
	if len(res.Phases) != 1 || res.Phases[0].Task != 3 {
		t.Fatalf("Result.Phases %v", res.Phases)
	}
	if res.NumTasks != 3 {
		t.Fatalf("Result.NumTasks = %d, want 3", res.NumTasks)
	}
}
