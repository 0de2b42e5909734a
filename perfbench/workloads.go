package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/datasets"
	"sofos/internal/persist"
	"sofos/internal/store"
)

// queryRequests encodes reads of qs[idx[i]] as /v1/query POST bodies;
// repeated reads of one query share its body.
func queryRequests(qs []query, idx []int) ([]request, error) {
	bodies := map[int][]byte{}
	out := make([]request, len(idx))
	for i, q := range idx {
		body, ok := bodies[q]
		if !ok {
			var err error
			if body, err = json.Marshal(api.QueryRequest{Query: qs[q].text}); err != nil {
				return nil, err
			}
			bodies[q] = body
		}
		out[i] = request{path: api.Prefix + "/query", body: body}
	}
	return out, nil
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// phase runs one timed phase between two /v1/metrics scrapes and checks
// the server's counters against the benchmark's own tallies.
func phase(d *driver, durable bool, f func() []sample) ([]sample, error) {
	before, err := scrape(d)
	if err != nil {
		return nil, err
	}
	ss := f()
	after, err := scrape(d)
	if err != nil {
		return nil, err
	}
	return ss, reconcile(before, after, tallyOf(ss), durable)
}

// allOK reports the first failed call of an untimed sequence.
func allOK(ss []sample) error {
	for i := range ss {
		if !ss[i].ok() {
			return fmt.Errorf("call %d: %s", i, ss[i].err)
		}
	}
	return nil
}

// heapMB is the live Go heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// readOnly runs explore or dashboard: a closed-loop capacity phase, then
// the open-loop phase at the workload's fixed rate, against one server
// whose state never changes.
func (r *run) readOnly() error {
	sp := r.spec
	bs, times, err := bootKeep(sp.Setups, 1, dataset, sp.Scale, "")
	if err != nil {
		return err
	}
	b := bs[0]
	defer b.close()
	setupS, _ := medianSetup(times)
	r.set("setup_s", setupS, "s")
	if err := r.readPhases(b); err != nil {
		return err
	}
	// Everything the phases and checks allocated is garbage now, so the
	// live heap is the server's.
	r.set("heap_mb", heapMB(), "MB")
	return nil
}

// readPhases runs the read-only workload's timed phases and answer checks.
func (r *run) readPhases(b *booted) error {
	sp := r.spec
	st := b.srv.Chain().Load()
	openS := r.seconds * (1 - closedShare)
	nOpen := int(sp.Rate * openS)
	if nOpen < minReads {
		return fmt.Errorf("%.0f/s for %.1fs gives %d reads, need %d", sp.Rate, openS, nOpen, minReads)
	}
	nClosed := sp.ClosedOps

	var (
		qs                          []query
		warmIdx, closedIdx, openIdx []int
		err                         error
	)
	rng := rand.New(rand.NewSource(r.seed))
	if sp.Queries == 0 {
		// explore: every read a distinct query, none repeated anywhere. The
		// open phase replays one fixed exploration session (the corpus in
		// generation order) from a seeded starting point, wrapping around:
		// every seed sends the same queries with the same neighbours, so
		// the costly queries queue behind each other the same way and p99
		// compares runs rather than orderings.
		warm := 16
		if qs, err = distinctQueries(st.Sys, datasetSeed, warm+nClosed+nOpen); err != nil {
			return err
		}
		warmIdx, closedIdx, openIdx = seq(0, warm), seq(warm, nClosed), seq(warm+nClosed, nOpen)
		k := rng.Intn(nOpen)
		openIdx = append(openIdx[k:], openIdx[:k]...)
	} else {
		// dashboard: a Zipf stream over a fixed set of panels (the same on
		// every seed; the seed picks the stream), cache warmed first.
		if qs, err = distinctQueries(st.Sys, datasetSeed, sp.Queries); err != nil {
			return err
		}
		warmIdx = seq(0, sp.Queries)
		closedIdx = zipfPicks(rng, sp.Queries, nClosed, zipfSkew)
		openIdx = zipfPicks(rng, sp.Queries, nOpen, zipfSkew)
	}
	digests := &bodyDigests{m: map[[2]uint32]digest{}}
	d := newDriver(b.addr, func(_ bool, body []byte) parsed { return digests.parseQuery(body) })
	defer d.close()
	ans := answers{}
	collect := func(idx []int, ss []sample) {
		for i := range ss {
			ans.add(idx[ss[i].op], &ss[i])
		}
	}

	warmReqs, err := queryRequests(qs, warmIdx)
	if err != nil {
		return err
	}
	warmSS := d.sequential(warmReqs)
	if err := allOK(warmSS); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	collect(warmIdx, warmSS)

	closedReqs, err := queryRequests(qs, closedIdx)
	if err != nil {
		return err
	}
	var closedElapsed time.Duration
	closedSS, err := phase(d, false, func() []sample {
		ss, el := d.drive(closedReqs, 0)
		closedElapsed = el
		return ss
	})
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	collect(closedIdx, closedSS)
	if err := r.count(closedSS); err != nil {
		return err
	}
	r.set("read_qps", throughput(closedSS, closedElapsed), "1/s")

	openReqs, err := queryRequests(qs, openIdx)
	if err != nil {
		return err
	}
	openSS, err := phase(d, false, func() []sample {
		ss, _ := d.drive(openReqs, sp.Rate)
		return ss
	})
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	collect(openIdx, openSS)
	cerr := r.count(openSS)
	lats := latenciesMS(openSS, func(*sample) bool { return true })
	r.set("read_p50_ms", percentile(lats, 0.50), "ms")
	r.set("read_p90_ms", percentile(lats, 0.90), "ms")
	r.note("read_p99_ms", percentile(lats, 0.99), "ms")
	r.props["read_tail_ms_p90_p95_p99_p999"] = []float64{round3(percentile(lats, 0.9)), round3(percentile(lats, 0.95)), round3(percentile(lats, 0.99)), round3(percentile(lats, 0.999))}
	if cerr != nil {
		return cerr
	}
	if err := r.checkLag(openSS); err != nil {
		return err
	}
	r.describeReads(openSS)

	// Answer checks, outside every timed window: each distinct (query,
	// generation) against base-graph evaluation with no views.
	base := st.Sys.Graph
	n, err := ans.verify(qs, func(int64) (*store.Graph, error) { return base, nil })
	if err != nil {
		return err
	}
	r.props["answers_checked"] = n
	return nil
}

// describeReads records the read stream's measured properties.
func (r *run) describeReads(ss []sample) {
	outcomes := map[string]int{}
	var rows, bytes []float64
	distinct := map[digest]bool{}
	reads := 0
	for i := range ss {
		s := &ss[i]
		if s.isWrite || !s.ok() {
			continue
		}
		reads++
		o := s.resp.outcome
		if s.resp.cached {
			o = "cache_hit"
		}
		outcomes[o]++
		rows = append(rows, float64(s.resp.dig.rows))
		bytes = append(bytes, float64(s.resp.bytes))
		distinct[s.resp.dig] = true
	}
	shares := map[string]float64{}
	for o, c := range outcomes {
		shares[o] = round3(float64(c) / float64(reads))
	}
	r.props["reads"] = reads
	r.props["outcome_shares"] = shares
	r.props["median_rows"] = median(rows)
	r.props["median_bytes"] = median(bytes)
	r.props["distinct_answers"] = len(distinct)
}

// ingest runs the durable write workload: eager-maintained transactions
// interleaved with dashboard reads, first open loop at the fixed rate, then
// closed loop over the continuation of the same stream for read_qps, then
// the answer, recovery and durability checks.
func (r *run) ingest() error {
	sp := r.spec
	bs, times, err := bootKeep(sp.Setups, 1, dataset, sp.Scale, r.work)
	if err != nil {
		return err
	}
	b := bs[0]
	closed := false
	defer func() {
		if !closed {
			b.close()
		}
	}()
	setupS, _ := medianSetup(times)
	r.set("setup_s", setupS, "s")
	end, err := r.ingestPhases(b)
	if err != nil {
		return err
	}
	// The phases' and checks' garbage is gone; what stays live besides the
	// server is end, a few kilobytes at the ingest scale.
	r.set("heap_mb", heapMB(), "MB")

	// Stop serving, measure the data dir, then recover from it.
	dataDir := b.dir.Path()
	b.close()
	closed = true
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	r.note("disk_mb", float64(disk)/1e6, "MB")
	return r.recover(dataDir, end)
}

// ingestEnd is what the recovery checks need of a finished ingest run.
type ingestEnd struct {
	qs      []query
	acked   []write // acknowledged writes in commit order
	lastGen int64   // generation of the last acknowledged write
	final   []digest
}

// ingestPhases runs the ingest workload's timed phases and answer checks.
func (r *run) ingestPhases(b *booted) (*ingestEnd, error) {
	sp := r.spec
	st0 := b.srv.Chain().Load()
	per := 1 + sp.ReadsPerWrite
	openS := r.seconds * (1 - closedShare)
	openBlocks := int(sp.Rate * openS / float64(per))
	if openBlocks < minWrites || openBlocks*sp.ReadsPerWrite < minReads {
		return nil, fmt.Errorf("%.0f/s for %.1fs gives %d writes and %d reads, need %d and %d",
			sp.Rate, openS, openBlocks, openBlocks*sp.ReadsPerWrite, minWrites, minReads)
	}
	blocks := openBlocks + sp.ClosedOps/per
	sq, err := ingestSequence(st0.Sys, sp, r.seed, blocks)
	if err != nil {
		return nil, err
	}
	qs, writes, ops, reqs := sq.qs, sq.writes, sq.ops, sq.reqs

	digests := &bodyDigests{m: map[[2]uint32]digest{}}
	var overlay []int // base overlay size after each acknowledged write
	handle := func(write bool, body []byte) parsed {
		if !write {
			return digests.parseQuery(body)
		}
		var u api.UpdateResponse
		if err := json.Unmarshal(body, &u); err != nil {
			return parsed{err: fmt.Sprintf("decoding update response: %v", err)}
		}
		// Writes are serialized, so this goroutine is the only one here.
		ms := b.srv.Chain().Load().Sys.Graph.MemStats()
		overlay = append(overlay, ms.OverlayAdds+ms.OverlayDels)
		return parsed{gen: u.Generation}
	}
	d := newDriver(b.addr, handle)
	defer d.close()

	ans := answers{}
	warmReqs := sq.warm
	warmSS := d.sequential(warmReqs)
	if err := allOK(warmSS); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i := range warmSS {
		ans.add(i, &warmSS[i])
	}
	split := openBlocks * per
	openSS, err := phase(d, true, func() []sample {
		ss, _ := d.drive(reqs[:split], sp.Rate)
		return ss
	})
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	cerr := r.count(openSS)
	reads := latenciesMS(openSS, func(s *sample) bool { return !s.isWrite })
	wr := latenciesMS(openSS, func(s *sample) bool { return s.isWrite })
	r.set("read_p50_ms", percentile(reads, 0.50), "ms")
	r.set("read_p90_ms", percentile(reads, 0.90), "ms")
	r.note("read_p99_ms", percentile(reads, 0.99), "ms")
	r.note("write_p50_ms", percentile(wr, 0.50), "ms")
	r.note("write_p95_ms", percentile(wr, 0.95), "ms")
	if cerr != nil {
		return nil, cerr
	}
	if err := r.checkLag(openSS); err != nil {
		return nil, err
	}
	r.describeReads(openSS)

	var closedElapsed time.Duration
	closedSS, err := phase(d, true, func() []sample {
		ss, el := d.drive(reqs[split:], 0)
		closedElapsed = el
		return ss
	})
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	if err := r.count(closedSS); err != nil {
		return nil, err
	}
	var closedReads []sample
	for i := range closedSS {
		closedSS[i].op += split
		if !closedSS[i].isWrite {
			closedReads = append(closedReads, closedSS[i])
		}
	}
	r.set("read_qps", throughput(closedReads, closedElapsed), "1/s")

	// Acknowledged writes in commit order, with the generation each made.
	var acked []write
	lastGen := st0.Generation
	for _, s := range append(openSS, closedSS...) {
		o := ops[s.op]
		if o.write < 0 {
			ans.add(o.q, &s)
			continue
		}
		if o.write != len(acked) || s.resp.gen != lastGen+1 {
			return nil, fmt.Errorf("write %d committed at generation %d, want write %d at %d", o.write, s.resp.gen, len(acked), lastGen+1)
		}
		acked = append(acked, writes[o.write])
		lastGen = s.resp.gen
	}
	r.describeWrites(acked, overlay)

	// Final state: every dashboard query re-read and checked at the last
	// generation; these answers must also survive the restart.
	finalSS := d.sequential(warmReqs)
	final := make([]digest, len(finalSS))
	for i := range finalSS {
		s := &finalSS[i]
		if !s.ok() || s.resp.gen != lastGen {
			return nil, fmt.Errorf("final re-read of query %d: status %d at generation %d, want 200 at %d", i, s.status, s.resp.gen, lastGen)
		}
		ans.add(i, s)
		final[i] = s.resp.dig
	}

	// Oracle: the dataset rebuilt, with acknowledged writes applied in
	// commit order up to each checked generation.
	og, _, err := datasets.BuildWithFacet(dataset, sp.Scale, datasetSeed)
	if err != nil {
		return nil, err
	}
	ogGen := st0.Generation
	graphAt := func(gen int64) (*store.Graph, error) {
		if gen < st0.Generation || gen > lastGen {
			return nil, fmt.Errorf("answer stamped with generation %d outside [%d, %d]", gen, st0.Generation, lastGen)
		}
		if ogGen == gen {
			return og, nil
		}
		for ; ogGen < gen; ogGen++ {
			w := acked[ogGen-st0.Generation]
			if _, err := og.Apply(w.inserts, nil); err != nil {
				return nil, err
			}
			if _, err := og.Apply(nil, w.deletes); err != nil {
				return nil, err
			}
		}
		// The oracle is the benchmark's own graph: compacting it keeps the
		// checks fast and changes no answer.
		og.Compact()
		return og, nil
	}
	n, err := ans.verify(qs, graphAt)
	if err != nil {
		return nil, err
	}
	r.props["answers_checked"] = n
	return &ingestEnd{qs: qs, acked: acked, lastGen: lastGen, final: final}, nil
}

// recover times core.Restore from the data dir (snapshot load plus WAL
// suffix replay) and checks the restored state: the last acknowledged
// generation, every acknowledged insert present and delete absent, and
// every dashboard answer identical to the one served before the restart.
func (r *run) recover(dataDir string, end *ingestEnd) error {
	qs, writes, lastGen, final := end.qs, end.acked, end.lastGen, end.final
	sys, rec, took, err := restoreDir(dataDir)
	if err != nil {
		return err
	}
	r.note("recovery_s", took.Seconds(), "s")
	r.props["replayed_batches"] = rec.ReplayedBatches
	var errs []error
	if g := sys.Generation(); g != lastGen {
		errs = append(errs, fmt.Errorf("restored generation %d, last acknowledged %d", g, lastGen))
	}
	for i, w := range writes {
		for _, t := range w.inserts {
			if !sys.Graph.Contains(t) {
				errs = append(errs, fmt.Errorf("acknowledged insert of write %d missing after restore: %v", i, t))
				break
			}
		}
		for _, t := range w.deletes {
			if sys.Graph.Contains(t) {
				errs = append(errs, fmt.Errorf("acknowledged delete of write %d present after restore: %v", i, t))
				break
			}
		}
	}
	for i, q := range qs {
		a, err := sys.AnswerWithWorkers(q.parsed, 0)
		if err != nil {
			return err
		}
		got, err := resultDigest(a.Result)
		if err != nil {
			return err
		}
		if got != final[i] {
			errs = append(errs, fmt.Errorf("dashboard query %d answers differently after restore (%d rows, was %d)", i, got.rows, final[i].rows))
		}
	}
	return errors.Join(errs...)
}

// restoreDir times core.Restore from a data dir: snapshot load plus WAL
// suffix replay.
func restoreDir(dataDir string) (*core.System, *core.RecoveryStats, time.Duration, error) {
	spec, ok := datasets.ByName(dataset)
	if !ok {
		return nil, nil, 0, fmt.Errorf("unknown dataset %q", dataset)
	}
	f, err := spec.Facet()
	if err != nil {
		return nil, nil, 0, err
	}
	dir, err := persist.Open(dataDir)
	if err != nil {
		return nil, nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	sys, rec, err := core.Restore(dir, f, core.Options{})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("restore: %w", err)
	}
	return sys, rec, time.Since(start), nil
}

// describeWrites records the write stream's measured properties.
func (r *run) describeWrites(writes []write, overlay []int) {
	triples := 0
	for _, w := range writes {
		triples += len(w.inserts) + len(w.deletes)
	}
	compactions := 0
	for i := 1; i < len(overlay); i++ {
		if overlay[i] < overlay[i-1] {
			compactions++
		}
	}
	peak := 0
	for _, o := range overlay {
		if o > peak {
			peak = o
		}
	}
	r.props["writes"] = len(writes)
	r.props["compaction_every_writes"] = round3(float64(len(writes)) / float64(compactions+1))
	r.props["write_share"] = round3(1 / float64(1+r.spec.ReadsPerWrite))
	r.props["triples_per_write"] = round3(float64(triples) / float64(len(writes)))
	r.props["compactions"] = compactions
	r.props["overlay_peak"] = peak
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
