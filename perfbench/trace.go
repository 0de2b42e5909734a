package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/engine"
	"sofos/internal/obs"
	"sofos/internal/persist"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/server"
	"sofos/internal/sparql"
	"sofos/internal/store"
	"sofos/internal/views"
)

// span is one timed call of the traced run. Every span of one operation
// shares its op id; a root span (parent -1) is the operation's HTTP call,
// and its children are the in-process public calls that make up the same
// operation, replayed right after it against the same published
// generation. Because children run after their parent rather than inside
// it, a span's self time is its duration minus the summed durations of its
// children (capped at zero).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the traced run's start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.since(time.Now())})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = t.since(time.Now()) }

// do records f as a span and returns its id.
func (t *tracer) do(op, parent int, name string, f func()) int {
	id := t.begin(op, parent, name)
	f()
	t.end(id)
	return id
}

// root records an already-timed HTTP call as an operation's root span.
func (t *tracer) root(op int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: op, Name: name, Start: t.since(start), End: t.since(end)})
	return id
}

// layerTimes sums each span name's duration and self time.
func (t *tracer) layerTimes() (dur, self map[string]time.Duration, count map[string]int) {
	dur, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		dur[s.Name] += d
		if own := d - children[i]; own > 0 {
			self[s.Name] += own
		}
		count[s.Name]++
	}
	return dur, self, count
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts accumulates the per-layer work counts of the traced run.
type layerCounts struct {
	reads, executed, hits, writes       int
	bodyBytes, patternScans             int64
	intermediate, resultRows            int64
	outcomes                            map[string]int
	scanNS, scanTriples, probeNS, estNS int64
	probeCalls, estCalls                int64
	overlay, overlaySamples             int64
	incremental, refreshed              int
	walBytes                            int64
	compactions, lastOverlay            int
}

// shadowWriter applies the served write stream a second time to a shadow
// system, one public call per step, mirroring the server's update path:
// parse, fork, apply per statement, plan and commit the eager refresh,
// append to a WAL with fsync, publish.
type shadowWriter struct {
	srv *server.Server
	log *persist.Log
}

func (w *shadowWriter) apply(tr *tracer, op, parent int, wr write, c *layerCounts) (int64, error) {
	var (
		stmts [][2][]rdf.Triple
		err   error
	)
	tr.do(op, parent, "rdf.parse", func() {
		for _, st := range wr.statements {
			var ins, del []rdf.Triple
			if ins, err = parseNT(st.Insert); err != nil {
				return
			}
			if del, err = parseNT(st.Delete); err != nil {
				return
			}
			stmts = append(stmts, [2][]rdf.Triple{ins, del})
		}
	})
	if err != nil {
		return 0, err
	}
	var txn *core.Txn
	tr.do(op, parent, "core.fork", func() { txn = w.srv.Chain().Begin() })
	baseGen := txn.Base.Generation
	var deltas []store.Delta
	for _, st := range stmts {
		var d store.Delta
		tr.do(op, parent, "views.apply", func() { d, err = txn.Sys.Catalog.ApplyUpdate(st[0], st[1]) })
		if err != nil {
			txn.Abort()
			return 0, err
		}
		deltas = append(deltas, d)
	}
	var plan *views.RefreshPlan
	tr.do(op, parent, "views.plan_refresh", func() { plan, err = txn.Sys.Catalog.PlanRefresh(txn.Sys.Workers) })
	if err == nil {
		tr.do(op, parent, "views.commit_refresh", func() { _, err = txn.Sys.Catalog.CommitRefresh(plan) })
	}
	if err != nil {
		txn.Abort()
		return 0, err
	}
	if plan != nil {
		c.incremental += plan.Incremental()
		c.refreshed += plan.Len()
	}
	txn.Sys.Catalog.SetGeneration(baseGen + 1)
	net := store.ComposeDeltas(deltas)
	before := w.log.Stats().Bytes
	tr.do(op, parent, "persist.wal_append", func() {
		err = w.log.Append(&persist.Record{
			FromVersion: net.FromVersion, ToVersion: net.ToVersion,
			Generation: txn.Sys.Generation(), Eager: true,
			Inserts: net.Inserted, Deletes: net.Deleted,
		})
	})
	if err != nil {
		txn.Abort()
		return 0, err
	}
	c.walBytes += w.log.Stats().Bytes - before
	var st *core.GenerationState
	tr.do(op, parent, "core.publish", func() { st = txn.Commit() })
	return st.Generation, nil
}

func parseNT(text string) ([]rdf.Triple, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	return rdf.NewParser(strings.NewReader(text)).ParseAll()
}

// storeProbe times the store layer on the graph a read ran against: a full
// drain of each facet predicate's range, a subject-bound scan of a sampled
// subject, and an estimate per facet predicate.
func storeProbe(g *store.Graph, preds []rdf.Term, subject rdf.Term, c *layerCounts) {
	dict := g.Dict()
	for _, p := range preds {
		pid, ok := dict.Lookup(p)
		if !ok {
			continue
		}
		start := time.Now()
		it := g.Scan(rdf.NoID, pid, rdf.NoID)
		n := 0
		for it.Next() {
			n++
		}
		c.scanNS += time.Since(start).Nanoseconds()
		c.scanTriples += int64(n)
		start = time.Now()
		_ = g.Estimate(rdf.NoID, pid, rdf.NoID)
		c.estNS += time.Since(start).Nanoseconds()
		c.estCalls++
	}
	if sid, ok := dict.Lookup(subject); ok {
		start := time.Now()
		it := g.Scan(sid, rdf.NoID, rdf.NoID)
		for it.Next() {
		}
		c.probeNS += time.Since(start).Nanoseconds()
		c.probeCalls++
	}
}

// facetPredicates lists the constant predicates of the facet pattern.
func facetPredicates(sys *core.System) []rdf.Term {
	var out []rdf.Term
	for _, tp := range sys.Facet.Pattern.Triples {
		if !tp.P.IsVar {
			out = append(out, tp.P.Term)
		}
	}
	return out
}

// overlaySize is the delta overlay of the base graph and of G+.
func overlaySize(sys *core.System) (base, expanded int) {
	b := sys.Graph.MemStats()
	e := sys.Catalog.Expanded().MemStats()
	return b.OverlayAdds + b.OverlayDels, e.OverlayAdds + e.OverlayDels
}

// traced replays the workload's operation sequence one operation at a time,
// twice: untraced against one server, then traced against a second one
// built the same way, with every read decomposed into its public calls and
// every write decomposed on a shadow system. It reports per-layer metrics,
// writes the spans file, and reports the tracing overhead as the traced
// replay's operations, children included, over the untraced replay's.
func (r *run) traced() error {
	sp := r.spec
	durable := sp.ReadsPerWrite > 0
	work := ""
	if durable {
		work = r.work
	}
	servers, times, err := bootKeep(sp.Setups, 2, dataset, sp.Scale, work)
	if err != nil {
		return err
	}
	defer func() {
		for _, b := range servers {
			b.close()
		}
	}()
	plain, served := servers[0], servers[1]
	_, ph := medianSetup(times)
	r.set("datasets.build_s", ph.build.Seconds(), "s")
	r.set("core.new_s", ph.newSys.Seconds(), "s")
	r.set("cost.models_s", ph.models.Seconds(), "s")
	r.set("selection.greedy_s", ph.greedy.Seconds(), "s")
	r.set("views.materialize_s", ph.materialize.Seconds(), "s")
	r.set("persist.checkpoint_s", ph.checkpoint.Seconds(), "s")

	st0 := served.srv.Chain().Load()
	sq, err := r.tracedSequence(st0.Sys)
	if err != nil {
		return err
	}

	// The shadow: a second server over the same published system (a fork
	// of it when the workload writes), fed the same operations in process.
	shadowSys := st0.Sys
	if durable {
		shadowSys = st0.Sys.Fork()
	}
	shadow := server.New(shadowSys, server.Config{SelectionSeed: datasetSeed})
	var sw *shadowWriter
	if durable {
		log, err := persist.OpenLog(filepath.Join(r.work, "shadow-wal"), persist.SyncAlways)
		if err != nil {
			return err
		}
		defer log.Close()
		sw = &shadowWriter{srv: shadow, log: log}
	}

	digests := &bodyDigests{m: map[[2]uint32]digest{}}
	handle := func(write bool, body []byte) parsed {
		if !write {
			return digests.parseQuery(body)
		}
		var u api.UpdateResponse
		if err := json.Unmarshal(body, &u); err != nil {
			return parsed{err: err.Error()}
		}
		return parsed{gen: u.Generation}
	}
	dPlain := newDriver(plain.addr, handle)
	defer dPlain.close()
	d := newDriver(served.addr, handle)
	defer d.close()

	// Warm both servers and the shadow's cache with every fixed query.
	if len(sq.warm) > 0 {
		for _, dd := range []*driver{dPlain, d} {
			if err := allOK(dd.sequential(sq.warm)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		for _, rq := range sq.warm {
			serveInProcess(shadow, rq)
		}
	}

	// Untraced replay: the same sequence, one operation at a time.
	plainSS := dPlain.sequential(sq.reqs)
	if err := r.count(plainSS); err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}

	tr := &tracer{t0: time.Now()}
	c := &layerCounts{outcomes: map[string]int{}}
	preds := facetPredicates(st0.Sys)
	var subjects []rdf.Term // store-probe subjects
	for _, o := range baseObservations(st0.Sys) {
		subjects = append(subjects, o[0].S)
	}
	rng := rand.New(rand.NewSource(r.seed))
	probeEvery := len(sq.reqs)/200 + 1
	var replayErr error
	fail := func(err error) []sample {
		replayErr = err
		return nil
	}
	tracedSS, err := phase(d, durable, func() []sample {
		l := &d.links[0]
		out := make([]sample, len(sq.reqs))
		for i, rq := range sq.reqs {
			start := time.Now()
			end, status, cerr := d.call(l, rq)
			s := &out[i]
			s.op, s.isWrite, s.lat = i, rq.write, end.Sub(start)
			d.finish(s, l, status, cerr)
			if !s.ok() {
				return fail(fmt.Errorf("operation %d: %s", i, s.err))
			}
			if rq.write {
				root := tr.root(i, "op.write", start, end)
				gen, err := sw.apply(tr, i, root, sq.writes[sq.ops[i].write], c)
				if err != nil {
					return fail(fmt.Errorf("shadow write %d: %w", i, err))
				}
				if gen != s.resp.gen {
					return fail(fmt.Errorf("shadow write %d reached generation %d, served %d", i, gen, s.resp.gen))
				}
				c.writes++
				b, _ := overlaySize(served.srv.Chain().Load().Sys)
				if b < c.lastOverlay {
					c.compactions++
				}
				c.lastOverlay = b
				continue
			}
			root := tr.root(i, "op.read", start, end)
			if err := traceRead(tr, i, root, shadow, rq, s, sq.qs[sq.ops[i].q], digests, c); err != nil {
				return fail(err)
			}
			if i%probeEvery == 0 {
				sys := shadow.Chain().Load().Sys
				b, e := overlaySize(sys)
				c.overlay += int64(b + e)
				c.overlaySamples++
				subj := subjects[rng.Intn(len(subjects))]
				tr.do(i, -1, "probe.store", func() { storeProbe(sys.Graph, preds, subj, c) })
			}
		}
		return out
	})
	if replayErr != nil {
		return replayErr
	}
	if err != nil {
		return err
	}
	if err := r.count(tracedSS); err != nil {
		return err
	}
	// The recovery probe restores the served data dir after the run, or on
	// a read-only workload the write probe's.
	var recoverDir string
	if !durable {
		if recoverDir, err = r.writeProbe(tr, st0.Sys, len(sq.reqs), c); err != nil {
			return err
		}
	}
	r.tracedMetrics(tr, c, plainSS)
	end := served.srv.Chain().Load().Sys
	ms := end.Graph.MemStats()
	es := end.Catalog.Expanded().MemStats()
	r.set("store.index_bytes", float64(ms.IndexBytes+es.IndexBytes), "bytes")
	r.set("views.storage_amplification", end.Catalog.StorageAmplification(), "ratio")
	r.set("store.compactions", float64(c.compactions), "count")

	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
	if err := tr.write(spans); err != nil {
		return err
	}
	r.props["spans_file"] = spans
	r.props["spans"] = len(tr.spans)

	if durable {
		recoverDir = served.dir.Path()
		served.close()
		servers = servers[:1]
	}
	return r.tracedRecovery(recoverDir)
}

// probeWrites is how many writes the write-path probe sends.
const probeWrites = 60

// writeProbe measures the write path on a read-only workload, which sends
// no writes of its own: a durable shadow fork of the served system writes
// a checkpoint, then takes probeWrites writes of the ingest generator, each
// decomposed into its public calls as a traced ingest write is. The served
// state is never touched. It returns the shadow's data dir.
func (r *run) writeProbe(tr *tracer, sys *core.System, opBase int, c *layerCounts) (string, error) {
	dir, err := persist.Open(filepath.Join(r.work, "write-probe"))
	if err != nil {
		return "", err
	}
	log, err := persist.OpenLog(dir.WALDir(), persist.SyncAlways)
	if err != nil {
		return "", err
	}
	defer log.Close()
	shadow := server.New(sys.Fork(), server.Config{
		SelectionSeed: datasetSeed,
		Durability:    &server.Durability{Dir: dir, Log: log, Dataset: dataset, Scale: r.spec.Scale, Seed: datasetSeed},
	})
	start := time.Now()
	if _, err := shadow.Checkpoint(); err != nil {
		return "", err
	}
	r.set("persist.checkpoint_s", time.Since(start).Seconds(), "s")
	writes, err := ingestWrites(sys, r.spec.Scale, r.seed, probeWrites)
	if err != nil {
		return "", err
	}
	sw := &shadowWriter{srv: shadow, log: log}
	for i, w := range writes {
		root := tr.begin(opBase+i, -1, "probe.write")
		_, err := sw.apply(tr, opBase+i, root, w, c)
		tr.end(root)
		if err != nil {
			return "", fmt.Errorf("write probe %d: %w", i, err)
		}
		c.writes++
	}
	return dir.Path(), nil
}

// serveInProcess sends one request straight into a server's handler.
func serveInProcess(srv *server.Server, rq request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", rq.path, bytes.NewReader(rq.body)))
	return rec
}

// traceRead decomposes one read: the shadow server's handler, then the
// parse, cache key, answer and execution it performed.
func traceRead(tr *tracer, op, root int, shadow *server.Server, rq request, s *sample, q query,
	digests *bodyDigests, c *layerCounts) error {
	c.reads++
	c.bodyBytes += int64(s.resp.bytes)
	var rec *httptest.ResponseRecorder
	h := tr.do(op, root, "server.handler", func() { rec = serveInProcess(shadow, rq) })
	if rec.Code != 200 {
		return fmt.Errorf("shadow read %d: status %d", op, rec.Code)
	}
	sh := digests.parseQuery(rec.Body.Bytes())
	if sh.err != "" || sh.gen != s.resp.gen || sh.dig != s.resp.dig || sh.cached != s.resp.cached {
		return fmt.Errorf("read %d: shadow answered generation %d cached %v, served %d cached %v (or rows differ)",
			op, sh.gen, sh.cached, s.resp.gen, s.resp.cached)
	}
	c.outcomes[s.resp.outcome]++
	var (
		pq  *sparql.Query
		err error
	)
	tr.do(op, h, "sparql.parse", func() { pq, err = sparql.Parse(q.text) })
	if err != nil {
		return err
	}
	tr.do(op, h, "rewrite.cache_key", func() { _ = rewrite.CacheKey(pq) })
	if s.resp.cached {
		c.hits++
		return nil
	}
	c.executed++
	st := shadow.Chain().Load()
	var ans *rewrite.Answer
	a := tr.do(op, h, "core.answer", func() { ans, err = st.Sys.AnswerWithWorkers(pq, 0) })
	if err != nil {
		return err
	}
	g, eq := st.Sys.Catalog.Base(), pq
	if ans.Rewritten != nil {
		g, eq = st.Sys.Catalog.Expanded(), ans.Rewritten
	}
	var res *engine.Result
	tr.do(op, a, "engine.execute", func() {
		res, err = engine.NewWithOptions(g, st.Sys.Catalog.EngineOptions()).Execute(eq)
	})
	if err != nil {
		return err
	}
	c.patternScans += int64(res.Stats.PatternScans)
	c.intermediate += res.Stats.IntermediateRows
	c.resultRows += int64(res.Stats.ResultRows)
	got, err := resultDigest(ans.Result)
	if err != nil {
		return err
	}
	if got != s.resp.dig {
		return fmt.Errorf("read %d: served answer differs from the in-process answer at generation %d", op, s.resp.gen)
	}
	return nil
}

// tracedMetrics turns the spans and counts into per-layer metrics.
func (r *run) tracedMetrics(tr *tracer, c *layerCounts, plain []sample) {
	dur, self, count := tr.layerTimes()
	per := func(name string, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(dur[name]) / float64(n)
	}
	r.set("server.handler_ms", per("server.handler", c.reads), "ms")
	var readRoot time.Duration
	for i := range tr.spans {
		if tr.spans[i].Name == "op.read" {
			readRoot += time.Duration(tr.spans[i].End - tr.spans[i].Start)
		}
	}
	transport := 0.0
	if c.reads > 0 {
		transport = (ms(readRoot) - ms(dur["server.handler"])) / float64(c.reads)
	}
	r.set("transport.self_ms", transport, "ms")
	r.set("server.body_bytes", ratio(float64(c.bodyBytes), float64(c.reads)), "bytes")
	r.set("server.cache_hit_ratio", ratio(float64(c.hits), float64(c.reads)), "ratio")
	r.set("sparql.parse_ms", per("sparql.parse", c.reads), "ms")
	r.set("rewrite.cache_key_ms", per("rewrite.cache_key", c.reads), "ms")
	r.set("core.answer_ms", per("core.answer", c.executed), "ms")
	r.set("engine.execute_ms", per("engine.execute", c.executed), "ms")
	r.set("rewrite.self_ms", ratio(ms(self["core.answer"]), float64(c.executed)), "ms")
	r.set("engine.pattern_scans", ratio(float64(c.patternScans), float64(c.executed)), "count")
	r.set("engine.intermediate_rows_per_result", ratio(float64(c.intermediate), float64(c.resultRows)), "ratio")
	for _, o := range []string{obs.OutcomeViewHit, obs.OutcomePartialRollup, obs.OutcomeFullScan} {
		r.set("rewrite.outcome_share."+o, ratio(float64(c.outcomes[o]), float64(c.reads)), "ratio")
	}
	r.set("store.scan_ns_per_triple", ratio(float64(c.scanNS), float64(c.scanTriples)), "ns")
	r.set("store.probe_ns", ratio(float64(c.probeNS), float64(c.probeCalls)), "ns")
	r.set("store.estimate_ns", ratio(float64(c.estNS), float64(c.estCalls)), "ns")
	r.set("store.overlay_triples", ratio(float64(c.overlay), float64(c.overlaySamples)), "count")
	r.set("rdf.parse_ms", per("rdf.parse", c.writes), "ms")
	r.set("core.fork_ms", per("core.fork", c.writes), "ms")
	r.set("core.publish_ms", per("core.publish", c.writes), "ms")
	r.set("views.apply_ms", per("views.apply", c.writes), "ms")
	r.set("views.plan_refresh_ms", per("views.plan_refresh", c.writes), "ms")
	r.set("views.commit_refresh_ms", per("views.commit_refresh", c.writes), "ms")
	r.set("views.incremental_ratio", ratio(float64(c.incremental), float64(c.refreshed)), "ratio")
	r.set("persist.wal_append_ms", per("persist.wal_append", c.writes), "ms")
	r.set("persist.wal_bytes_per_write", ratio(float64(c.walBytes), float64(c.writes)), "bytes")

	// Tracing overhead: each whole traced operation, from its root span's
	// start to the end of its last child, against the same operation
	// replayed untraced on an identical server. Store probes only sample
	// the store, and the write probe's operations lie past the sequence;
	// neither is part of an operation.
	first, last := map[int]int64{}, map[int]int64{}
	for _, sp := range tr.spans {
		if sp.Op >= len(plain) || sp.Name == "probe.store" {
			continue
		}
		if st, ok := first[sp.Op]; !ok || sp.Start < st {
			first[sp.Op] = sp.Start
		}
		last[sp.Op] = max(last[sp.Op], sp.End)
	}
	var traced, untraced time.Duration
	for op, st := range first {
		traced += time.Duration(last[op] - st)
	}
	for i := range plain {
		untraced += plain[i].lat
	}
	r.set("trace.overhead_ratio", ratio(float64(traced), float64(untraced)), "ratio")
	r.props["spans_per_name"] = count
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRecovery restores the traced server's data dir and reports the
// recovery phases.
func (r *run) tracedRecovery(dataDir string) error {
	_, rec, _, err := restoreDir(dataDir)
	if err != nil {
		return err
	}
	r.set("persist.snapshot_load_s", rec.SnapshotLoad.Seconds(), "s")
	r.set("persist.replay_s", (rec.Elapsed - rec.SnapshotLoad).Seconds(), "s")
	r.set("persist.replayed_batches", float64(rec.ReplayedBatches), "count")
	return nil
}

// tracedSequence builds the same kind of sequence the measured run sends,
// sized by the workload's traced_ops.
func (r *run) tracedSequence(sys *core.System) (*sequence, error) {
	sp := r.spec
	if sp.ReadsPerWrite > 0 {
		return ingestSequence(sys, sp, r.seed, sp.TracedOps/(1+sp.ReadsPerWrite))
	}
	s := &sequence{}
	var err error
	if sp.Queries > 0 {
		if s.qs, err = distinctQueries(sys, datasetSeed, sp.Queries); err != nil {
			return nil, err
		}
		s.ops = readOps(zipfPicks(rand.New(rand.NewSource(r.seed)), sp.Queries, sp.TracedOps, zipfSkew))
	} else {
		if s.qs, err = exploreCorpus(sys, r.seed, sp.TracedOps); err != nil {
			return nil, err
		}
		s.ops = readOps(seq(0, sp.TracedOps))
	}
	return s, s.encode(sp.Queries > 0)
}
