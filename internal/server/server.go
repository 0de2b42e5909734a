// Package server exposes a SOFOS system over HTTP: the online module as a
// concurrent analytics service. The versioned /v1 route tree covers the live
// loop — /v1/query answers analytical queries through the rewriter (so
// materialized views are used transparently), /v1/update applies batched
// inserts and deletes, /v1/views lists and manages materializations, and
// /v1/stats reports serving and cache health. Request and response bodies
// are the typed structs of internal/api; every non-200 response is the uniform
// {"error":{"code","message"}} envelope, and every response carries an
// X-Sofos-Generation header so clients can track the catalog generation they
// have observed.
//
// Concurrency model (snapshot-chain MVCC): the server publishes immutable
// generations through core.Chain — an atomic pointer to a
// {system, generation, view-set hash, cache-key prefix} snapshot. A query
// loads the pointer once and answers entirely against that snapshot — cache
// probe, execution and the generation stamped in its body — so readers are
// wait-free: they never take a lock, never block each other, and never
// block behind a writer, even mid-refresh. Writers (updates,
// materialize/drop/reset, refresh commits, replica apply) serialize on the
// chain's writer mutex — which readers never touch — prepare the next
// generation on a copy-on-write fork sharing every immutable run with the
// published snapshot, and publish it with a single atomic store. Every
// answer is therefore consistent with exactly one committed generation.
// A global semaphore bounds concurrently executing cache misses (admission
// control), and a sharded LRU result cache keyed on (normalized query,
// catalog generation, view-set hash) serves repeated queries without
// re-execution while never returning a stale answer.
//
// Durability (optional, Config.Durability): committed /v1/update batches are
// appended to a write-ahead log inside the write critical section before
// the response is sent, catalog mutations the log does not capture write a
// checkpoint before acknowledging, and /v1/admin/checkpoint snapshots on
// demand — see internal/persist and durability.go.
//
// Replication (optional): a durable primary serves its log as an NDJSON
// stream on GET /v1/wal and its newest checkpoint as a tar archive on GET
// /v1/checkpoint; replicas (Config.Replica) bootstrap from the archive, tail
// the stream through the same incremental maintenance path recovery takes,
// reject writes, and report applied progress back via POST /v1/replica/ack —
// which is what /v1/update acknowledgement levels ("ack":"replicas:N") wait
// on. See replication.go (primary side) and replica.go (replica side).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/obs"
	"sofos/internal/persist"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
)

// Server roles, advertised in /v1/stats and /v1/healthz.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// Config tunes a Server; the zero value is the production default.
type Config struct {
	// MaxConcurrent bounds queries executing at once (admission control).
	// Further requests queue until a slot frees. 0 means 2×GOMAXPROCS.
	MaxConcurrent int

	// CacheEntries is the result cache capacity in entries. 0 means 4096;
	// negative disables caching.
	CacheEntries int

	// CacheBytes bounds the total rendered bytes the result cache may hold
	// (bodies are stored fully rendered, so sizes are exact). 0 means no
	// byte budget — the entry-count bound alone, today's default behavior.
	CacheBytes int64

	// SelectionSeed seeds cost models for POST /views materialize-by-model
	// actions, so runtime selections reproduce the startup-time ones made
	// with the same seed. 0 means 1.
	SelectionSeed int64

	// Durability, when non-nil, makes the server durable: every committed
	// /update batch is appended to the write-ahead log before it is
	// acknowledged, catalog mutations outside the update path checkpoint the
	// state they produce, and POST /admin/checkpoint is served. Nil keeps
	// the server memory-only.
	Durability *Durability

	// AckTimeout bounds how long an update with "ack":"replicas:N" waits for
	// N replicas to report the batch applied before giving up with a
	// replication_timeout error (the batch is committed and locally durable
	// either way). 0 means 10s.
	AckTimeout time.Duration

	// ReadWait bounds how long a replica holds a query whose
	// X-Sofos-Min-Generation is ahead of the applied state before
	// redirecting the client to the primary. 0 means 2s.
	ReadWait time.Duration

	// Replica, when non-nil, puts the server in read-replica mode: it
	// rejects writes, tails the primary's /v1/wal stream (StartReplication),
	// and reports applied progress back. Durability is ignored for replicas —
	// they re-bootstrap from the primary's checkpoint instead of local disk.
	Replica *ReplicaOptions

	// ObsOff disables observability entirely: no tracing, no metrics, no
	// query ring; /v1/metrics and /v1/debug/queries answer 503. The default
	// (false) keeps it on — the instrumented hot path is within noise of
	// off (see BenchmarkTracedQueryOverhead).
	ObsOff bool

	// SlowQueryMS promotes queries at least this slow to the structured log
	// (and marks them in /v1/debug/queries). 0 means 500ms; negative
	// disables promotion while keeping tracing on.
	SlowQueryMS int

	// TraceRing is the capacity of the recent-query ring behind
	// /v1/debug/queries. 0 means 256.
	TraceRing int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.SelectionSeed == 0 {
		c.SelectionSeed = 1
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.ReadWait <= 0 {
		c.ReadWait = 2 * time.Second
	}
	if c.SlowQueryMS == 0 {
		c.SlowQueryMS = 500
	}
	if c.Replica != nil {
		// Replicas hold no local durable state: their data directory is the
		// primary's, reached through bootstrap archives and the WAL stream.
		c.Durability = nil
	}
	return c
}

// Server serves one SOFOS system over HTTP. Create with New, mount via
// Handler.
type Server struct {
	// chain is the MVCC snapshot chain. Handlers load the published
	// generation once per request and answer against it without any lock;
	// mutations run as chain transactions (fork, mutate, publish) under the
	// chain's writer mutex, which readers never acquire. On a replica the
	// apply loop is the only writer, and a re-bootstrap resets the chain to
	// the freshly restored system.
	chain *core.Chain
	cfg   Config
	role  string

	cache *resultCache  // nil when disabled
	sem   chan struct{} // admission semaphore, capacity MaxConcurrent

	mux     *http.ServeMux
	started time.Time

	queries atomic.Int64 // /v1/query requests answered (including cache hits)
	updates atomic.Int64 // /update batches applied

	// dur is the durability wiring (nil = memory-only); lastCheckpoint and
	// checkpoints track checkpoint activity for /stats. Atomics because the
	// interval checkpointer and /admin/checkpoint can both write them.
	// Checkpoint writers serialize on the chain's writer mutex (see
	// Checkpoint), so two checkpoints never interleave inside one sequence
	// number and a snapshot never races a WAL append.
	// walGap records that a committed batch failed to reach the WAL and no
	// healing checkpoint has succeeded yet; further updates are refused
	// until one does (see commitUpdate).
	dur            *Durability
	lastCheckpoint atomic.Pointer[persist.Manifest]
	checkpoints    atomic.Int64
	walGap         atomic.Bool

	// tracker follows replica progress on a primary (nil on replicas);
	// repl is the apply-loop state on a replica (nil on primaries).
	tracker *replicaTracker
	repl    *replicaRuntime

	// obs is the observability state (metrics registry, trace ring, slow
	// threshold); nil when Config.ObsOff.
	obs *serverObs
}

// New wraps a system in a server with the given configuration.
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		chain:   core.NewChain(sys),
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		started: time.Now(),
		dur:     cfg.Durability,
	}
	if cfg.Replica != nil {
		s.role = RoleReplica
		s.repl = newReplicaRuntime(cfg.Replica)
	} else {
		s.role = RolePrimary
		s.tracker = newReplicaTracker()
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	if !cfg.ObsOff {
		s.obs = newServerObs(s, cfg)
	}
	// Every endpoint lives under /v1, registered with its canonical path as
	// the endpoint metric label.
	for path, h := range map[string]http.HandlerFunc{
		"/query":            s.handleQuery,
		"/update":           s.handleUpdate,
		"/views":            s.handleViews,
		"/stats":            s.handleStats,
		"/healthz":          s.handleHealthz,
		"/admin/checkpoint": s.handleAdminCheckpoint,
		"/wal":              s.handleWALStream,
		"/checkpoint":       s.handleCheckpointArchive,
		"/replica/ack":      s.handleReplicaAck,
		"/metrics":          s.handleMetrics,
		"/debug/queries":    s.handleDebugQueries,
	} {
		s.mux.HandleFunc(api.Prefix+path, s.instrument(path, h))
	}
	return s
}

// Handler returns the HTTP handler serving all endpoints. Every response is
// stamped with the X-Sofos-Generation header (see respWriter).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mux.ServeHTTP(&respWriter{ResponseWriter: w, srv: s}, r)
	})
}

// respWriter is the one wrapper around every response. It stamps the catalog
// generation onto the response at header-flush time — after the handler
// finished its critical section, so the advertised generation is at least
// the one the body was computed at (the counter only moves forward) — and
// records the status code for the per-endpoint request metrics. It forwards
// Flush so the /v1/wal stream can push lines through any buffering layers.
type respWriter struct {
	http.ResponseWriter
	srv    *Server
	status int // 0 until the header is written
}

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		w.Header().Set(api.HeaderGeneration,
			strconv.FormatInt(w.srv.chain.Load().Generation, 10))
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

func (w *respWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// system returns the currently published system. Handlers that need a
// single consistent state pin s.chain.Load() once instead and use its Sys
// throughout; this accessor is for one-shot reads (progress reports,
// liveness) where the freshest published pointer is what's wanted.
func (s *Server) system() *core.System { return s.chain.Load().Sys }

// System returns the served system (for tests and embedding callers).
func (s *Server) System() *core.System { return s.system() }

// Chain exposes the MVCC snapshot chain (for tests and embedding callers).
func (s *Server) Chain() *core.Chain { return s.chain }

// Role returns RolePrimary or RoleReplica.
func (s *Server) Role() string { return s.role }

// handleQuery answers one analytical query. After the replica gate (a
// replica holds a request whose X-Sofos-Min-Generation is ahead of its
// applied state briefly, then redirects to the primary) it pins one
// published generation and answers entirely against it: the result cache is
// probed once under that generation's key, a miss takes an admission slot
// and executes, and every exit is recorded at one finish point before the
// response is written.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if ws := r.URL.Query().Get("workers"); ws != "" {
			n, err := strconv.Atoi(ws)
			if err != nil {
				httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad workers parameter %q", ws)
				return
			}
			req.Workers = n
		}
	case http.MethodPost:
		if !decodeBody(w, r, &req) {
			return
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "use GET ?q= or POST a JSON body")
		return
	}
	if req.Query == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "empty query")
		return
	}
	q, err := sparql.Parse(req.Query)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeParseError, "parse error: %v", err)
		return
	}
	norm := rewrite.CacheKey(q)

	if s.role == RoleReplica && !s.gateMinGeneration(w, r) {
		return
	}

	// Tracing: every query gets a trace id — the caller's X-Sofos-Trace-Id
	// when it is well formed, a fresh one otherwise — echoed back on the
	// response so clients correlate across primary and replica. ?trace=1
	// additionally returns the span tree in the body; such a request
	// bypasses the cache entirely (cached bodies carry no spans, and a
	// traced body must not be served to untraced requests).
	var (
		tr        *obs.Trace
		root      obs.SpanHandle
		wantTrace bool
	)
	if s.obs != nil {
		id := r.Header.Get(api.HeaderTraceID)
		if !validTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(api.HeaderTraceID, id)
		wantTrace = r.URL.Query().Get("trace") == "1"
		tr = obs.NewTrace(id)
		root = tr.Span("query")
	}

	// Pin one published generation: the snapshot is immutable, so no lock is
	// held while answering, and a writer publishing mid-query never perturbs
	// this answer. The cache key embeds the generation and view-set hash, so
	// an entry stored under any other state simply misses.
	st := s.chain.Load()
	root.AttrInt("generation", st.Generation)
	var key string
	if s.cache != nil && !wantTrace {
		key = st.CacheKeyPrefix + norm
	}
	rec := obs.QueryRecord{TraceID: tr.ID(), Query: req.Query, Generation: st.Generation}
	body, resp, fail := s.answerQuery(r.Context(), st, q, req.Workers, key, root, &rec)

	if s.obs != nil {
		spans := s.obs.finishQuery(tr, root, rec, wantTrace)
		if wantTrace && resp != nil {
			resp.TraceID = tr.ID()
			resp.Trace = spans
		}
	}
	if fail != nil {
		writeJSON(w, fail.status, api.ErrorResponse{Error: fail.Error})
		return
	}
	s.queries.Add(1)
	if body != nil {
		writeCachedBody(w, body)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryFailure is a query exit answered with the error envelope.
type queryFailure struct {
	status int
	api.Error
}

// answerQuery answers q against the pinned state st. A non-empty key probes
// the result cache once; only a miss takes an admission slot and executes,
// and the rendered answer is stored under key. Exactly one of the stored
// body of a cache hit, a fresh response, or a failure is returned; rec is
// filled with the outcome for the caller's finish point.
func (s *Server) answerQuery(ctx context.Context, st *core.GenerationState, q *sparql.Query,
	workers int, key string, root obs.SpanHandle, rec *obs.QueryRecord) ([]byte, *api.QueryResponse, *queryFailure) {
	if key != "" {
		probe := root.Child("cache.probe")
		body, ok := s.cache.get(key)
		probe.Attr("result", cacheResult(ok))
		probe.End()
		if ok {
			rec.Outcome = obs.OutcomeCacheHit
			return body, nil, nil
		}
	}

	admit := root.Child("admission.wait")
	select {
	case s.sem <- struct{}{}:
		admit.End()
		defer func() { <-s.sem }()
	case <-ctx.Done():
		admit.End()
		rec.Outcome, rec.Err = obs.OutcomeError, "request canceled while queued"
		return nil, nil, &queryFailure{http.StatusServiceUnavailable, api.Error{Code: api.CodeUnavailable, Message: rec.Err}}
	}

	// A client may lower its query's parallelism, never raise it past the
	// system's (0 or less means the system's).
	ans, err := st.Sys.AnswerObserved(q, min(workers, st.Sys.Workers), root)
	if err != nil {
		rec.Outcome, rec.Err = obs.OutcomeError, err.Error()
		return nil, nil, &queryFailure{http.StatusUnprocessableEntity, api.Error{Code: api.CodeExecutionError, Message: "execution error: " + rec.Err}}
	}
	render := root.Child("render")
	resp := &api.QueryResponse{
		Vars:       ans.Result.Vars,
		Rows:       renderRows(ans),
		Via:        ans.ViaLabel(),
		Reason:     ans.Reason,
		Outcome:    ans.Outcome,
		Generation: st.Generation,
		ElapsedUS:  ans.Elapsed.Microseconds(),
	}
	render.AttrInt("rows", int64(len(resp.Rows)))
	render.End()
	if key != "" {
		// Render the cached variant once at insert time; hits serve the
		// bytes verbatim instead of re-encoding the rows per request. The
		// body is cached before any trace fields are attached: the trace id
		// header is the canonical per-request carrier, and span trees are
		// never shared across requests.
		resp.Cached = true
		if body, err := json.Marshal(resp); err == nil {
			s.cache.put(key, body)
		}
		resp.Cached = false
	}
	rec.Outcome, rec.Reason, rec.Rows = ans.Outcome, ans.Reason, len(resp.Rows)
	if ans.Via != nil {
		rec.View = ans.Via.View().ID()
	}
	return nil, resp, nil
}

// validTraceID reports whether a caller-supplied trace id may be echoed and
// kept in the query ring: 1–64 bytes of [0-9A-Za-z._-]. Anything else is
// replaced by a fresh id, so no header can bloat the ring or the response.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// cacheResult labels a cache probe span's outcome.
func cacheResult(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}

// gateMinGeneration enforces X-Sofos-Min-Generation on a replica: wait up to
// cfg.ReadWait for the apply loop to reach the requested generation, then
// redirect to the primary. Reports whether the request may proceed locally
// (on failure the response has been written).
func (s *Server) gateMinGeneration(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(api.HeaderMinGeneration)
	if h == "" {
		return true
	}
	minGen, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header %q", api.HeaderMinGeneration, h)
		return false
	}
	if minGen <= 0 || s.waitForGeneration(r.Context(), minGen, s.cfg.ReadWait) {
		return true
	}
	// Still behind: route the read to the primary, which by construction has
	// every generation it ever advertised.
	if primary := s.repl.primaryURL(); primary != "" {
		http.Redirect(w, r, strings.TrimSuffix(primary, "/")+r.URL.RequestURI(),
			http.StatusTemporaryRedirect)
		return false
	}
	httpError(w, http.StatusServiceUnavailable, api.CodeStaleReplica,
		"replica is at generation %d, behind the requested %d",
		s.system().Generation(), minGen)
	return false
}

// renderRows renders result values as strings in SELECT order.
func renderRows(ans *rewrite.Answer) [][]string {
	rows := make([][]string, len(ans.Result.Rows))
	for i, row := range ans.Result.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	return rows
}

// writeCachedBody serves a pre-rendered cached response body.
func writeCachedBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// maxBodyBytes bounds every JSON request body, so one client cannot make the
// server buffer an unbounded body. Queries, view actions and replica progress
// reports are a few KB; 16 MiB still fits an update batch of some 100k
// N-Triples lines.
const maxBodyBytes = 16 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes. On failure it writes the error envelope — 413 for an
// over-limit body, 400 for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest,
			"request body exceeds %d bytes", tooLarge.Limit)
	default:
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
	}
	return false
}

// httpError writes the uniform error envelope: a stable machine-readable
// code plus a human-readable message.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable mid-stream; the
	// client sees a truncated body and re-requests.
	_ = json.NewEncoder(w).Encode(v)
}
