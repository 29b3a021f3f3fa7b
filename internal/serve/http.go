package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// RunRequest is the POST /run body. Only Key is required; zero values
// fall back to the patternlet's defaults, exactly as the CLI's flags do.
type RunRequest struct {
	Key        string          `json:"key"`
	Tasks      int             `json:"tasks,omitempty"`
	Toggles    map[string]bool `json:"toggles,omitempty"`
	Params     map[string]int  `json:"params,omitempty"` // declared run parameters (problem sizes); omitted = defaults
	Seed       int64           `json:"seed,omitempty"`   // PRNG seed for randomized patternlets; 0 = the shipped default
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
	UseTCP     bool            `json:"tcp,omitempty"`
	Nodes      int             `json:"nodes,omitempty"`
	Collect    bool            `json:"collect,omitempty"`    // fill phases/counters
	Trace      bool            `json:"trace,omitempty"`      // retain a Chrome trace, implies collect
	Distribute bool            `json:"distribute,omitempty"` // span the MPI world across cluster members
	Redirect   bool            `json:"redirect,omitempty"`   // 307 to the owning node instead of proxying
}

// RunResponse is the POST /run reply for an executed run (any outcome
// that reached the registry, including a timeout, which also carries the
// partial output).
type RunResponse struct {
	Key       string           `json:"key"`
	Tasks     int              `json:"tasks"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Output    string           `json:"output"`
	Phases    []PhaseSpan      `json:"phases,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	TraceID   string           `json:"trace_id,omitempty"`
	Node      string           `json:"node,omitempty"`   // executing node id (cluster mode only)
	Cached    bool             `json:"cached,omitempty"` // served from the run store, not executed
	RunID     string           `json:"run_id,omitempty"` // stored-run id for GET /runs/{id} (store mode only)
	Error     string           `json:"error,omitempty"`
}

// PhaseSpan is one recorded phase event, flattened for JSON.
type PhaseSpan struct {
	Seq   int    `json:"seq"`
	Task  int    `json:"task"`
	Phase string `json:"phase"`
	Value int    `json:"value"`
}

// PatternletInfo is one GET /patternlets entry.
type PatternletInfo struct {
	Key          string      `json:"key"`
	Model        string      `json:"model"`
	Synopsis     string      `json:"synopsis"`
	Patterns     []string    `json:"patterns"`
	Directives   []string    `json:"directives,omitempty"`
	Params       []ParamInfo `json:"params,omitempty"`
	MinTasks     int         `json:"min_tasks,omitempty"`
	DefaultTasks int         `json:"default_tasks,omitempty"`
}

// ParamInfo is one declared run parameter in a PatternletInfo: name,
// doc, shipped default and accepted range — everything a client (the
// load harness, a student's script) needs to pick sizes without reading
// source.
type ParamInfo struct {
	Name    string `json:"name"`
	Doc     string `json:"doc,omitempty"`
	Default int    `json:"default"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
}

// Handler returns the server's HTTP mux:
//
//	POST /run          execute a patternlet (RunRequest → RunResponse)
//	POST /worker       host one rank of a cluster-spanning world (cluster mode)
//	GET  /patternlets  catalog listing
//	GET  /healthz      liveness + admission stats (+ ring ownership in cluster mode)
//	GET  /metrics      human-readable counter summary (text)
//	GET  /metrics.json counter snapshot (JSON)
//	GET  /trace/{id}   retained Chrome trace from a trace=true run
//	GET  /runs         stored run history, ?key= filters (store mode)
//	GET  /runs/{id}    one stored run with its full output (store mode)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /patternlets", s.handlePatternlets)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	if s.sharded != nil {
		mux.HandleFunc("POST /worker", s.handleWorker)
	}
	if s.cfg.store != nil {
		// Run history exists only with a store; without one the mux (and
		// every response) is byte-identical to the store-less daemon.
		mux.HandleFunc("GET /runs", s.handleRuns)
		mux.HandleFunc("GET /runs/{id}", s.handleRunByID)
	}
	return mux
}

// maxBodyBytes bounds a /run or /worker request body. Real bodies are a
// few hundred bytes; the bound stops one client from making the daemon
// buffer an arbitrarily large document.
const maxBodyBytes = 1 << 20

// Connection timeouts for the http.Server in front of Handler:
// ReadHeaderTimeout stops a client that sends its headers slowly from
// holding a connection, and IdleTimeout closes keep-alive connections
// no request has used for that long.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// The body must be exactly one JSON value: json.Unmarshal refuses
// trailing bytes, as /worker does. It answers 413 past the limit and 400
// for a body that does not decode, and reports whether v holds the
// request.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		bodyError(w, what, err)
	}
	return err == nil
}

// bodyError answers a body that could not be read or was refused: 413
// past maxBodyBytes, 400 otherwise.
func bodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "%s over %d bytes", what, maxBodyBytes)
		return
	}
	httpError(w, http.StatusBadRequest, "bad %s: %v", what, err)
}

// httpError is the uniform JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// End-to-end covers every outcome this handler produces — 200s, 4xx
	// validation bounces, 503 backpressure — because a load test sizing
	// the daemon cares how long *answers* take, not only successes.
	start := time.Now()
	defer s.e2eHist.RecordSince(start)
	var req RunRequest
	if !decodeBody(w, r, "request body", &req) {
		return
	}
	if req.Key == "" {
		httpError(w, http.StatusBadRequest, "missing key")
		return
	}
	p, ok := s.reg.Get(req.Key)
	if !ok {
		httpError(w, http.StatusNotFound, "no patternlet %q", req.Key)
		return
	}
	opts := core.RunOptions{
		NumTasks: req.Tasks,
		Toggles:  req.Toggles,
		Params:   req.Params,
		Seed:     req.Seed,
		UseTCP:   req.UseTCP,
		Nodes:    req.Nodes,
		Collect:  req.Collect || req.Trace,
	}
	// Validate inputs before spending a queue slot, so bad requests fail
	// fast with 400 instead of occupying a worker.
	if _, err := p.CheckOptions(opts); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Distribute {
		if s.sharded == nil {
			httpError(w, http.StatusBadRequest, "distribute requires cluster mode (start patternletd with -node-id and -peers)")
			return
		}
		if err := checkSpans(p); err != nil {
			httpError(w, http.StatusBadRequest, "distribute: %v", err)
			return
		}
	}

	timeout := s.clampTimeout(time.Duration(req.TimeoutMS) * time.Millisecond)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	exec := ExecRequest{
		Key:        req.Key,
		Opts:       opts,
		Trace:      req.Trace,
		Redirect:   req.Redirect,
		Distribute: req.Distribute,
		Forwarded:  r.Header.Get(forwardedHeader) != "",
	}
	out, err := s.exec.Execute(ctx, exec)

	var redirect *RedirectError
	if errors.As(err, &redirect) {
		w.Header().Set("Location", "http://"+redirect.Addr+"/run")
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	if errors.Is(err, errBusy) {
		// Local saturation answers with a hint derived from the observed
		// drain rate (execute-latency EWMA × backlog over the pool; see
		// retryAfterHint), falling back to the configured static value
		// before the first job has finished. A relayed peer 503 carries
		// the peer's own hint through instead.
		retryAfter := s.local.retryAfterHint()
		var busy *BusyError
		if errors.As(err, &busy) {
			retryAfter = busy.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		httpError(w, http.StatusServiceUnavailable, "server busy: admission queue full")
		return
	}

	res := out.Result
	resp := RunResponse{
		Key:       res.Key,
		Tasks:     res.NumTasks,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		Output:    res.Output,
		Counters:  res.Counters,
		TraceID:   out.TraceID,
		Node:      out.Node,
		Cached:    out.Cached,
		RunID:     out.RunID,
	}
	for _, ev := range res.Phases {
		resp.Phases = append(resp.Phases, PhaseSpan{
			Seq:   ev.Seq,
			Task:  ev.Task,
			Phase: ev.Phase,
			Value: ev.Value,
		})
	}

	code := http.StatusOK
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The run was stopped by its deadline (or the client hung up);
		// the partial output still ships so the caller sees how far the
		// region got before cancellation.
		code = http.StatusGatewayTimeout
		resp.Error = err.Error()
	default:
		code = http.StatusInternalServerError
		resp.Error = err.Error()
	}
	respondStart := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
	s.respondHist.RecordSince(respondStart)
}

// handleWorker hosts one rank of a peer-launched world in this process.
// It is cluster-internal: the rank bypasses admission because the world
// it belongs to already holds an admitted job at its owner. The body is
// checked in full before the rank listens or dials anything.
func (s *Server) handleWorker(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var wreq WorkerRequest
	if err == nil {
		wreq, err = s.parseWorkerBody(body)
	}
	if err != nil {
		bodyError(w, "worker body", err)
		return
	}
	out := s.sharded.hostWorker(r.Context(), wreq)
	w.Header().Set("Content-Type", "application/json")
	if out.Error != "" {
		w.WriteHeader(http.StatusInternalServerError)
	}
	json.NewEncoder(w).Encode(out)
}

// parseWorkerBody decodes a /worker body and checks it as /run checks a
// request: a known MPI or MPI+OpenMP patternlet, np in [1, MaxTasks] and
// at least the patternlet's minimum, rank in [0, np), a rendezvous
// address, and only declared params and toggles.
func (s *Server) parseWorkerBody(body []byte) (WorkerRequest, error) {
	var wreq WorkerRequest
	if err := json.Unmarshal(body, &wreq); err != nil {
		return WorkerRequest{}, err
	}
	p, ok := s.reg.Get(wreq.Key)
	if !ok {
		return WorkerRequest{}, fmt.Errorf("no patternlet %q", wreq.Key)
	}
	if err := checkSpans(p); err != nil {
		return WorkerRequest{}, err
	}
	if wreq.Rank < 0 || wreq.Rank >= wreq.NP || wreq.Rendezvous == "" {
		return WorkerRequest{}, fmt.Errorf("rank=%d np=%d rendezvous=%q", wreq.Rank, wreq.NP, wreq.Rendezvous)
	}
	if _, err := p.CheckOptions(core.RunOptions{NumTasks: wreq.NP, Toggles: wreq.Toggles, Params: wreq.Params}); err != nil {
		return WorkerRequest{}, err
	}
	return wreq, nil
}

// checkSpans refuses a patternlet whose world cannot span daemons.
func checkSpans(p *core.Patternlet) error {
	if p.Model != core.MPI && p.Model != core.Hybrid {
		return fmt.Errorf("%q is a %s patternlet; worlds span only MPI and MPI+OpenMP programs", p.Key(), p.Model)
	}
	return nil
}

func retryAfterSeconds(d time.Duration) int {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handlePatternlets(w http.ResponseWriter, r *http.Request) {
	var out []PatternletInfo
	for _, p := range s.reg.All() {
		info := PatternletInfo{
			Key:          p.Key(),
			Model:        string(p.Model),
			Synopsis:     p.Synopsis,
			MinTasks:     p.MinTasks,
			DefaultTasks: p.DefaultTasks,
		}
		for _, pat := range p.Patterns {
			info.Patterns = append(info.Patterns, string(pat))
		}
		for _, d := range p.Directives {
			info.Directives = append(info.Directives, d.Name)
		}
		for _, pr := range p.Params {
			info.Params = append(info.Params, ParamInfo{
				Name: pr.Name, Doc: pr.Doc, Default: pr.Default, Min: pr.Min, Max: pr.Max,
			})
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	if st.Draining {
		// Draining: still answering, but not admitting — tell the load
		// balancer to steer new work elsewhere.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	var ringInfo *RingInfo
	if s.sharded != nil {
		ringInfo = s.sharded.ringInfo()
	}
	json.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
		Stats
		Ring *RingInfo `json:"ring,omitempty"`
	}{status(st), st, ringInfo})
}

func status(st Stats) string {
	if st.Draining {
		return "draining"
	}
	return "ok"
}

// metricsSnapshot merges the run store's counters and the stage
// histograms of whichever executors this server has into the server's
// counter snapshot. Each histogram becomes serve.stage.<name>.{count,
// p50_ns, p90_ns, p95_ns, p99_ns, p999_ns, max_ns}, so the stages ride
// the same sorted /metrics and /metrics.json surface as the counters;
// a store-less single node exports no cache_lookup or ring_route series.
func (s *Server) metricsSnapshot() map[string]int64 {
	snap := s.counters.Snapshot()
	fold := func(name string, h *telemetry.Histogram) {
		hs := h.Snapshot()
		prefix := "serve.stage." + name + "."
		snap[prefix+"count"] = hs.Count()
		for _, p := range telemetry.Percentiles {
			snap[prefix+p.Label+"_ns"] = hs.Quantile(p.Q)
		}
		snap[prefix+"max_ns"] = hs.Max
	}
	fold(stageAdmission, &s.local.admissionHist)
	fold(stageQueue, &s.local.queueHist)
	fold(stageExecute, &s.local.executeHist)
	fold(stageRespond, &s.respondHist)
	fold(stageE2E, &s.e2eHist)
	if s.cached != nil {
		fold(stageCache, &s.cached.lookupHist)
		for name, v := range s.cfg.store.Counters() {
			snap[name] = v
		}
	}
	if s.sharded != nil {
		fold(stageRoute, &s.sharded.routeHist)
	}
	return snap
}

// writeCountersJSON marshals a counter snapshot with a guaranteed
// stable, sorted key order. encoding/json happens to sort map keys
// today, but tooling that diffs consecutive scrapes deserves the order
// as a documented guarantee, not an accident of the encoder — so the
// object is assembled explicitly, sorted, and pinned by a golden test.
func writeCountersJSON(w io.Writer, snap map[string]int64) error {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		quoted, err := json.Marshal(name)
		if err != nil {
			return err
		}
		b.Write(quoted)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(snap[name], 10))
	}
	b.WriteString("}\n")
	_, err := w.Write(b.Bytes())
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, telemetry.Summarize(nil, s.metricsSnapshot()))
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeCountersJSON(w, s.metricsSnapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.local.traces.get(id)
	if !ok && s.cfg.store != nil {
		// Evicted from the FIFO (or produced before a restart): the run
		// store retains traces beyond both.
		data, ok = s.cfg.store.GetTrace(id)
	}
	if !ok {
		// A forwarded run's trace lives on the node that executed it;
		// proxy the fetch there so the trace link in the /run reply works
		// against the node the client contacted.
		if s.sharded != nil && s.sharded.proxyTrace(w, id) {
			return
		}
		httpError(w, http.StatusNotFound, "no trace %q (retained: last %d)", id, s.cfg.traceCapacity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// StoredRun is one GET /runs entry: the stored record's identity and,
// on the single-run endpoint, its full result.
type StoredRun struct {
	ID       string       `json:"id"`
	Key      string       `json:"key"`
	Digest   string       `json:"digest"`
	StoredMS int64        `json:"stored_unix_ms"`
	Result   *RunResponse `json:"result,omitempty"`
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	records := s.cfg.store.Runs(r.URL.Query().Get("key"))
	out := make([]StoredRun, 0, len(records))
	for _, rec := range records {
		out = append(out, StoredRun{ID: rec.ID, Key: rec.Key, Digest: rec.Digest, StoredMS: rec.StoredMS})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.cfg.store.RunByID(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no stored run %q", id)
		return
	}
	res := rec.Result
	out := StoredRun{
		ID: rec.ID, Key: rec.Key, Digest: rec.Digest, StoredMS: rec.StoredMS,
		Result: &RunResponse{
			Key:       res.Key,
			Tasks:     res.NumTasks,
			ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
			Output:    res.Output,
			Counters:  res.Counters,
			Cached:    true,
			RunID:     rec.ID,
		},
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
