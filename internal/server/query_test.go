package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sofos/internal/api"
	"sofos/internal/obs"
)

// orderByUnprojected parses but fails at execution: the engine sorts only
// on projected variables.
const orderByUnprojected = prefix + `SELECT ?country WHERE {
  ?o ex:country ?country .
  ?o ex:lang ?lang .
} ORDER BY ?lang`

// TestQueryExitsCountedOnce drives every handleQuery exit once — a cache
// hit, an answered miss, an execution error, and a request canceled while
// queued — and asserts each adds exactly one query-log record and one
// sofos_query_total increment under the matching outcome, and that every
// untraced query counts exactly one cache hit or miss.
func TestQueryExitsCountedOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1})

	type counts struct {
		ring     uint64 // query log records
		newest   string // outcome of the newest record
		outcomes map[string]float64
		cache    float64 // hits + misses
	}
	read := func() counts {
		t.Helper()
		body := scrapeMetrics(t, ts)
		c := counts{outcomes: map[string]float64{}}
		for _, out := range queryOutcomes {
			c.outcomes[out] = outcomeCount(body, out)
		}
		hits, _ := metricValue(body, "sofos_cache_hits_total", "")
		misses, _ := metricValue(body, "sofos_cache_misses_total", "")
		c.cache = hits + misses
		var dbg api.DebugQueriesResponse
		if code := getJSON(t, ts.URL+"/v1/debug/queries?limit=1", &dbg); code != http.StatusOK {
			t.Fatalf("/v1/debug/queries returned status %d", code)
		}
		c.ring = dbg.Total
		if len(dbg.Entries) > 0 {
			c.newest = dbg.Entries[0].Outcome
		}
		return c
	}
	// exit runs one request and checks it was recorded once as outcome.
	untraced := 0
	exit := func(name, outcome string, wantStatus int, do func() int) {
		t.Helper()
		before := read()
		if code := do(); code != wantStatus {
			t.Fatalf("%s: status %d, want %d", name, code, wantStatus)
		}
		untraced++
		after := read()
		if after.ring != before.ring+1 {
			t.Errorf("%s: query log grew by %d records, want 1", name, after.ring-before.ring)
		}
		if after.newest != outcome {
			t.Errorf("%s: newest query log record is %q, want %q", name, after.newest, outcome)
		}
		for _, out := range queryOutcomes {
			want := before.outcomes[out]
			if out == outcome {
				want++
			}
			if got := after.outcomes[out]; got != want {
				t.Errorf("%s: sofos_query_total{outcome=%q} = %v, want %v", name, out, got, want)
			}
		}
	}
	post := func(q string) func() int {
		return func() int { return postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Query: q}, nil) }
	}

	exit("answered miss", obs.OutcomeFullScan, http.StatusOK, post(apexQuery))
	exit("cache hit", obs.OutcomeCacheHit, http.StatusOK, post(apexQuery))
	exit("execution error", obs.OutcomeError, http.StatusUnprocessableEntity, post(orderByUnprojected))
	exit("canceled while queued", obs.OutcomeError, http.StatusServiceUnavailable, func() int {
		srv.sem <- struct{}{} // hold the only admission slot
		defer func() { <-srv.sem }()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/query",
			jsonBody(api.QueryRequest{Query: countryQuery})).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	})

	if got := read().cache; got != float64(untraced) {
		t.Errorf("cache hits + misses = %v, want one per untraced query (%d)", got, untraced)
	}
}

// TestTraceIDValidated asserts a caller's X-Sofos-Trace-Id is echoed and
// logged only when it is 1–64 bytes of [0-9A-Za-z._-]; anything else is
// replaced by a freshly minted id, so no header can bloat the query ring.
func TestTraceIDValidated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		id   string
		keep bool
	}{
		{"cafe0123cafe0123", true},
		{"client-7.req_42", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{strings.Repeat("x", 1<<16), false},
		{"has space", false},
		{"semi;colon", false},
		{"café", false},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
			jsonBody(api.QueryRequest{Query: apexQuery}))
		req.Header.Set(api.HeaderTraceID, tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("id %.20q: status %d", tc.id, resp.StatusCode)
		}
		got := resp.Header.Get(api.HeaderTraceID)
		if tc.keep && got != tc.id {
			t.Errorf("valid id %.20q: echoed %q", tc.id, got)
		}
		if !tc.keep && (len(got) != 16 || strings.Trim(got, "0123456789abcdef") != "") {
			t.Errorf("invalid id %.20q: echoed %.20q, want a fresh 16-hex id", tc.id, got)
		}
		var dbg api.DebugQueriesResponse
		getJSON(t, ts.URL+"/v1/debug/queries?limit=1", &dbg)
		if len(dbg.Entries) != 1 || dbg.Entries[0].TraceID != got {
			t.Errorf("id %.20q: newest query log record does not carry the echoed id %q", tc.id, got)
		}
	}
}
