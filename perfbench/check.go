package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sofos/internal/api"
	"sofos/internal/engine"
	"sofos/internal/obs"
	"sofos/internal/sparql"
	"sofos/internal/store"
)

// digest is an order-independent fingerprint of a result's rows: the row
// count and the wrapping sum of per-row hashes, where a row hashes as its
// JSON encoding (["cell", ...], cells rendered as the server renders them).
type digest struct {
	rows int
	sum  uint64
}

var rowSeed = maphash.MakeSeed()

// parsed is what the benchmark keeps of one response.
type parsed struct {
	gen     int64
	cached  bool
	outcome string
	dig     digest
	bytes   int
	err     string
}

// bodyDigests memoizes row digests by body checksum: cached responses are
// the same bytes every time, so each distinct body is scanned once.
type bodyDigests struct {
	mu sync.Mutex
	m  map[[2]uint32]digest
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// parseQuery extracts generation, cache flag, outcome and row digest from a
// /v1/query body without a JSON decode of the rows.
func (b *bodyDigests) parseQuery(body []byte) parsed {
	p := parsed{bytes: len(body)}
	var err error
	if p.gen, err = intField(body, `"generation":`); err != nil {
		return parsed{err: err.Error()}
	}
	// A JSON string cannot hold an unescaped quote, so these keys can only
	// be the top-level fields, which follow the rows: searching from the
	// end finds them without scanning the body.
	if i := bytes.LastIndex(body, []byte(`"cached":`)); i >= 0 {
		p.cached = bytes.HasPrefix(body[i+len(`"cached":`):], []byte("true"))
	}
	if i := bytes.LastIndex(body, []byte(`"outcome":"`)); i >= 0 {
		rest := body[i+len(`"outcome":"`):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			p.outcome = string(rest[:j])
		}
	}
	key := [2]uint32{crc32.Checksum(body, castagnoli), uint32(len(body))}
	b.mu.Lock()
	d, ok := b.m[key]
	b.mu.Unlock()
	if !ok {
		if d, err = rowsDigest(body); err != nil {
			return parsed{err: err.Error()}
		}
		b.mu.Lock()
		b.m[key] = d
		b.mu.Unlock()
	}
	p.dig = d
	return p
}

// intField reads the integer after the last occurrence of key.
func intField(body []byte, key string) (int64, error) {
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no %s field", key)
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	return strconv.ParseInt(string(rest[:j]), 10, 64)
}

// rowsDigest scans the "rows" array of a query body: an array of arrays of
// JSON strings, as encoding/json writes them (no whitespace).
func rowsDigest(body []byte) (digest, error) {
	i := bytes.Index(body, []byte(`"rows":`))
	if i < 0 {
		return digest{}, fmt.Errorf("response has no rows")
	}
	b := body[i+len(`"rows":`):]
	if bytes.HasPrefix(b, []byte("null")) {
		return digest{}, nil
	}
	if len(b) < 2 || b[0] != '[' {
		return digest{}, fmt.Errorf("malformed rows")
	}
	var d digest
	pos := 1
	for pos < len(b) && b[pos] != ']' {
		if b[pos] == ',' {
			pos++
		}
		if b[pos] != '[' {
			return digest{}, fmt.Errorf("malformed row at byte %d", pos)
		}
		start := pos
		inStr := false
		for pos++; pos < len(b); pos++ {
			c := b[pos]
			if inStr {
				if c == '\\' {
					pos++
				} else if c == '"' {
					inStr = false
				}
			} else if c == '"' {
				inStr = true
			} else if c == ']' {
				break
			}
		}
		if pos >= len(b) {
			return digest{}, fmt.Errorf("truncated rows")
		}
		pos++
		d.rows++
		d.sum += maphash.Bytes(rowSeed, b[start:pos])
	}
	return d, nil
}

// resultDigest fingerprints an engine result the way rowsDigest reads a
// served body.
func resultDigest(res *engine.Result) (digest, error) {
	var d digest
	cells := make([]string, 0, len(res.Vars))
	for _, row := range res.Rows {
		cells = cells[:0]
		for _, v := range row {
			cells = append(cells, v.String())
		}
		enc, err := json.Marshal(cells)
		if err != nil {
			return digest{}, err
		}
		d.rows++
		d.sum += maphash.Bytes(rowSeed, enc)
	}
	return d, nil
}

// oracle evaluates q on a base graph with no views.
func oracle(base *store.Graph, q *sparql.Query) (digest, error) {
	res, err := engine.New(base).Execute(q)
	if err != nil {
		return digest{}, err
	}
	return resultDigest(res)
}

// answerKey identifies one distinct answer to check: a query at a
// generation.
type answerKey struct {
	q   int
	gen int64
}

// answers collects the distinct digests served per (query, generation).
type answers map[answerKey]map[digest]bool

func (a answers) add(q int, s *sample) {
	if !s.ok() || s.isWrite {
		return
	}
	k := answerKey{q, s.resp.gen}
	if a[k] == nil {
		a[k] = map[digest]bool{}
	}
	a[k][s.resp.dig] = true
}

// verify checks every collected answer against the oracle. graphAt returns
// the oracle base graph for a generation; generations are visited in order
// so an incrementally built oracle only moves forward, and the queries of
// one generation are evaluated inFlight at a time.
func (a answers) verify(qs []query, graphAt func(gen int64) (*store.Graph, error)) (int, error) {
	byGen := map[int64][]int{}
	var gens []int64
	for k := range a {
		if byGen[k.gen] == nil {
			gens = append(gens, k.gen)
		}
		byGen[k.gen] = append(byGen[k.gen], k.q)
	}
	slices.Sort(gens)
	for _, gen := range gens {
		g, err := graphAt(gen)
		if err != nil {
			return 0, err
		}
		ids := byGen[gen]
		slices.Sort(ids)
		errs := make([]error, len(ids))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
					errs[i] = a.check(qs, g, answerKey{ids[i], gen})
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return len(a), nil
}

// check compares every digest served for k with the oracle's.
func (a answers) check(qs []query, g *store.Graph, k answerKey) error {
	want, err := oracle(g, qs[k.q].parsed)
	if err != nil {
		return fmt.Errorf("oracle for query %d: %w", k.q, err)
	}
	for got := range a[k] {
		if got != want {
			return fmt.Errorf("answer mismatch at generation %d: served %d rows, oracle %d rows (digests differ) for query:\n%s",
				k.gen, got.rows, want.rows, qs[k.q].text)
		}
	}
	return nil
}

// scrape reads /v1/metrics into series → value.
func scrape(d *driver) (map[string]float64, error) {
	body, err := d.get(api.Prefix + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// tally counts what the benchmark saw in one phase, in the server's terms.
type tally struct {
	outcomes map[string]int // sofos_query_total outcome label → count
	cached   int
	uncached int
	writes   int // acknowledged
}

func tallyOf(ss []sample) tally {
	t := tally{outcomes: map[string]int{}}
	for i := range ss {
		s := &ss[i]
		switch {
		case s.isWrite:
			if s.ok() {
				t.writes++
			}
		case s.ok() && s.resp.cached:
			t.cached++
			t.outcomes[obs.OutcomeCacheHit]++
		case s.ok():
			t.uncached++
			t.outcomes[s.resp.outcome]++
		case s.status >= 400:
			t.outcomes[obs.OutcomeError]++
		}
	}
	return t
}

// reconcile checks the server's counters moved exactly as the benchmark's
// own tallies say. A response served on the post-admission cache recheck
// counts one miss and one hit, so misses may exceed uncached responses by
// at most the cached ones.
func reconcile(before, after map[string]float64, t tally, durable bool) error {
	delta := func(series string) int { return int(after[series] - before[series]) }
	var errs []string
	for _, o := range []string{obs.OutcomeCacheHit, obs.OutcomeViewHit, obs.OutcomePartialRollup, obs.OutcomeFullScan, obs.OutcomeError} {
		series := fmt.Sprintf(`sofos_query_total{outcome=%q}`, o)
		if got := delta(series); got != t.outcomes[o] {
			errs = append(errs, fmt.Sprintf("%s moved %d, benchmark saw %d", series, got, t.outcomes[o]))
		}
	}
	if got := delta("sofos_cache_hits_total"); got != t.cached {
		errs = append(errs, fmt.Sprintf("sofos_cache_hits_total moved %d, benchmark saw %d cached responses", got, t.cached))
	}
	if got := delta("sofos_cache_misses_total"); got < t.uncached || got > t.uncached+t.cached {
		errs = append(errs, fmt.Sprintf("sofos_cache_misses_total moved %d, benchmark saw %d uncached (+ up to %d rechecked) responses", got, t.uncached, t.cached))
	}
	if got := delta("sofos_updates_total"); got != t.writes {
		errs = append(errs, fmt.Sprintf("sofos_updates_total moved %d, benchmark saw %d acknowledged writes", got, t.writes))
	}
	if durable {
		if got := delta("sofos_wal_fsyncs_total"); got != t.writes {
			errs = append(errs, fmt.Sprintf("sofos_wal_fsyncs_total moved %d, benchmark saw %d acknowledged writes", got, t.writes))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("counter reconciliation failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
