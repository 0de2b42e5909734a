package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sofos/internal/api"
	"sofos/internal/core"
	"sofos/internal/rdf"
	"sofos/internal/rewrite"
	"sofos/internal/sparql"
	"sofos/internal/workload"
)

// query is one generated read: the text the server receives and its parse,
// which only the benchmark's own checks and traced calls use.
type query struct {
	text   string
	parsed *sparql.Query
}

// distinctQueries returns the first n generated queries with distinct
// result-cache keys, in generation order. Each workload.Generate call
// draws a fresh batch from one seeded stream, so the list is a function of
// the seed alone.
func distinctQueries(sys *core.System, seed int64, n int) ([]query, error) {
	seen := make(map[string]bool, n)
	var out []query
	for batch := int64(0); len(out) < n; batch++ {
		if batch == 64 {
			return nil, fmt.Errorf("generator yields only %d distinct queries, need %d", len(out), n)
		}
		w, err := sys.GenerateWorkload(workload.Config{Size: 2 * n, Seed: seed*1_000_003 + batch})
		if err != nil {
			return nil, err
		}
		for _, q := range w.Queries {
			k := rewrite.CacheKey(q.Parsed)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, query{text: q.Text, parsed: q.Parsed})
			if len(out) == n {
				break
			}
		}
	}
	return out, nil
}

// exploreCorpus returns the fixed corpus of n distinct generated queries
// as one exploration session started at a seeded offset (see readOnly).
func exploreCorpus(sys *core.System, seed int64, n int) ([]query, error) {
	qs, err := distinctQueries(sys, datasetSeed, n)
	if err != nil {
		return nil, err
	}
	k := rand.New(rand.NewSource(seed)).Intn(n)
	return append(qs[k:], qs[:k]...), nil
}

// zipfPicks draws n indices into [0, k) with Zipf skew s: a dashboard where
// a few panels are refreshed far more often than the rest.
func zipfPicks(rng *rand.Rand, k, n int, s float64) []int {
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// write is one generated /v1/update transaction. body is the encoded
// request the server receives; inserts and deletes are the triples the
// checks hold the server to.
type write struct {
	body             []byte
	inserts, deletes []rdf.Triple
	statements       []api.UpdateStatement
}

const (
	dbpNS        = "http://dbpedia.org/property/"
	dbpResource  = "http://dbpedia.org/resource/"
	obsPerWrite  = 3 // new observations each write inserts (12 triples) ...
	obsPerDelete = 1 // ... and earlier observations it deletes (4 triples)
)

var (
	writeLanguages = []string{"English", "French", "Spanish", "Arabic", "Portuguese", "German"}
	writeYears     = []int{2015, 2016, 2017, 2018, 2019}
)

// ingestWrites generates n eager-maintained write transactions over a
// dbpedia graph of the given scale. Every write is a two-statement
// transaction: the first inserts obsPerWrite new population observations
// of existing countries, the second deletes obsPerDelete observations of
// the original dataset (each deleted at most once). Neither statement
// shrinks the store's delta overlay — the inserts are new and the deletes
// are tombstones on compacted runs — so every write grows it by the same
// number of triples until the store compacts it on its own, and the
// compaction cycle is the same on every seed.
func ingestWrites(sys *core.System, scale int, seed int64, n int) ([]write, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_1a6e))
	victims := baseObservations(sys)
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	p := func(local string) rdf.Term { return rdf.NewIRI(dbpNS + local) }
	countryP, langP, yearP, popP := p("country"), p("language"), p("year"), p("population")
	out := make([]write, n)
	for i := range out {
		var ins []rdf.Triple
		for j := 0; j < obsPerWrite; j++ {
			obs := rdf.NewIRI(fmt.Sprintf("%sbench-obs-%d-%d-%d", dbpResource, seed, i, j))
			country := rdf.NewIRI(fmt.Sprintf("%sCountry%d", dbpResource, rng.Intn(scale)))
			ins = append(ins,
				rdf.Triple{S: obs, P: countryP, O: country},
				rdf.Triple{S: obs, P: langP, O: rdf.NewLiteral(writeLanguages[rng.Intn(len(writeLanguages))])},
				rdf.Triple{S: obs, P: yearP, O: rdf.NewYear(writeYears[rng.Intn(len(writeYears))])},
				rdf.Triple{S: obs, P: popP, O: rdf.NewInteger(int64(1+rng.Intn(50)) * 100_000)})
		}
		if len(victims) < obsPerDelete {
			return nil, fmt.Errorf("dataset has too few observations to delete %d per write", obsPerDelete)
		}
		w := write{inserts: ins}
		for _, v := range victims[:obsPerDelete] {
			w.deletes = append(w.deletes, v...)
		}
		victims = victims[obsPerDelete:]
		w.statements = []api.UpdateStatement{{Insert: rdf.NTriplesString(ins)}, {Delete: rdf.NTriplesString(w.deletes)}}
		body, err := json.Marshal(api.UpdateRequest{Statements: w.statements, Maintain: "eager"})
		if err != nil {
			return nil, err
		}
		w.body = body
		out[i] = w
	}
	return out, nil
}

// baseObservations returns the dataset's own observations, each as its
// triples, in subject order.
func baseObservations(sys *core.System) [][]rdf.Triple {
	by := map[string][]rdf.Triple{}
	for _, t := range sys.Graph.Triples() {
		if t.S.IsIRI() && strings.HasPrefix(t.S.Value, dbpResource+"obs") {
			by[t.S.Value] = append(by[t.S.Value], t)
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]rdf.Triple, len(keys))
	for i, k := range keys {
		ts := by[k]
		sort.Slice(ts, func(a, b int) bool { return ts[a].P.Value < ts[b].P.Value })
		out[i] = ts
	}
	return out
}

// op is one scheduled operation: a read of queries[q], or (write >= 0) the
// write-th write transaction.
type op struct {
	q     int
	write int
}

// readOps wraps read indices as operations.
func readOps(idx []int) []op {
	out := make([]op, len(idx))
	for i, q := range idx {
		out[i] = op{q: q, write: -1}
	}
	return out
}

// sequence is a workload's prepared operations: the queries and writes
// they draw on, the schedule, the encoded requests, and the warm-up reads
// of a fixed query set.
type sequence struct {
	qs     []query
	writes []write
	ops    []op
	reqs   []request
	warm   []request
}

// encode prepares the requests of s.ops and, for a fixed query set, the
// warm-up reads of every query.
func (s *sequence) encode(fixedSet bool) error {
	reads := make([]int, 0, len(s.ops))
	for _, o := range s.ops {
		if o.write < 0 {
			reads = append(reads, o.q)
		}
	}
	rq, err := queryRequests(s.qs, reads)
	if err != nil {
		return err
	}
	s.reqs = make([]request, 0, len(s.ops))
	for _, o := range s.ops {
		if o.write >= 0 {
			s.reqs = append(s.reqs, request{path: api.Prefix + "/update", body: s.writes[o.write].body, write: true})
			continue
		}
		s.reqs = append(s.reqs, rq[0])
		rq = rq[1:]
	}
	if fixedSet {
		s.warm, err = queryRequests(s.qs, seq(0, len(s.qs)))
	}
	return err
}

// ingestSequence lays out blocks of one write and readsPerWrite dashboard
// reads. The schedule (which query is read when, where each write falls)
// is the same on every seed; the seed picks what each write inserts and
// deletes. The costly reads (full scans late in an overlay cycle) then
// fall at the same points of every run.
func ingestSequence(sys *core.System, sp workloadSpec, seed int64, blocks int) (*sequence, error) {
	s := &sequence{}
	var err error
	if s.qs, err = distinctQueries(sys, datasetSeed, sp.Queries); err != nil {
		return nil, err
	}
	if s.writes, err = ingestWrites(sys, sp.Scale, seed, blocks); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(datasetSeed))
	s.ops = interleave(rng, blocks, zipfPicks(rng, sp.Queries, blocks*sp.ReadsPerWrite, zipfSkew), sp.ReadsPerWrite)
	return s, s.encode(true)
}

// interleave lays out writes and reads at a fixed ratio: block i holds
// write i and readsPerWrite reads, in a seeded order within the block.
func interleave(rng *rand.Rand, writes int, reads []int, readsPerWrite int) []op {
	var out []op
	for w := 0; w < writes; w++ {
		block := []op{{q: -1, write: w}}
		block = append(block, readOps(reads[w*readsPerWrite:(w+1)*readsPerWrite])...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}
