// Command perfbench is sofos's end-to-end benchmark. It boots the
// production server in-process behind a loopback listener, drives it over
// /v1 from at most two connections, checks every answer against a no-views
// oracle, reconciles its own tallies with the server's /v1/metrics
// counters, and prints the result as one JSON line. From the repository
// root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 45   # every workload
//
// --trace 1 runs the traced replay that reports per-layer metrics instead
// (trace.go). Workloads and their fixed parameters live in workloads.json;
// WORKLOADS.md says why each exists and what it measured.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload invocation's state and output.
type run struct {
	name    string
	spec    workloadSpec
	seed    int64
	seconds float64
	work    string // scratch directory for data dirs, removed at exit

	metrics   map[string]metric // the JSON result: every end_to_end or per_layer metric
	extra     map[string]metric // printed, not in the JSON: read_p99_ms, ingest's write and recovery figures
	props     map[string]any    // measured workload properties, printed for the record
	attempted int
	failed    int
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// note records a figure that is printed with the metrics but left out of
// the JSON result, which carries exactly the metrics BENCHMARK.json gates.
func (r *run) note(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }

func main() {
	var (
		name    = flag.String("workload", "", "explore, dashboard, ingest, or all")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 45, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced replay reporting per-layer metrics")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced bool) error {
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	names := []string{name}
	if name == "all" {
		names = []string{"explore", "dashboard", "ingest"}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		spec, ok := specs[n]
		if !ok {
			return fmt.Errorf("unknown workload %q (want explore, dashboard, ingest or all)", n)
		}
		r := &run{name: n, spec: spec, seed: seed, seconds: seconds,
			work: filepath.Join(work, n), metrics: map[string]metric{}, extra: map[string]metric{}, props: map[string]any{}}
		start := time.Now()
		err := r.execute(traced)
		res := result{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
		report(r, time.Since(start))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			printJSON(res)
			return fmt.Errorf("%s failed its checks", n)
		}
		if len(names) == 1 {
			printJSON(res)
			return nil
		}
		for k, m := range r.metrics {
			total.Metrics[n+"."+k] = m
		}
		total.Attempted += r.attempted
		total.Failed += r.failed
	}
	printJSON(total)
	return nil
}

// execute runs the workload's measured or traced procedure.
func (r *run) execute(traced bool) error {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	switch {
	case traced:
		return r.traced()
	case r.name == "ingest":
		return r.ingest()
	default:
		return r.readOnly()
	}
}

// report prints every metric by name and unit, then the measured workload
// properties, for a human reading the run.
func report(r *run, took time.Duration) {
	for _, ms := range []map[string]metric{r.metrics, r.extra} {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-10s %-42s %14.4f %s\n", r.name, k, ms[k].Value, ms[k].Unit)
		}
	}
	props, _ := json.Marshal(r.props)
	fmt.Printf("%-10s properties %s\n", r.name, props)
	fmt.Printf("%-10s attempted %d failed %d in %.1fs\n", r.name, r.attempted, r.failed, took.Seconds())
}

func printJSON(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// workloadSpec is one workload's fixed parameters from workloads.json.
type workloadSpec struct {
	// Scale is the dbpedia dataset scale (countries).
	Scale int `json:"scale"`
	// Rate is the open-loop offered load in operations per second. It is
	// fixed here, never derived at run time; see workloads.json for how it
	// was chosen.
	Rate float64 `json:"rate_per_s"`
	// Queries is the size of a fixed query set read with Zipf skew
	// (dashboard, ingest); 0 means every read is a distinct query (explore).
	Queries int `json:"queries"`
	// ReadsPerWrite interleaves writes with reads (ingest); 0 = read-only.
	ReadsPerWrite int `json:"reads_per_write"`
	// ClosedOps is the fixed number of operations of the closed-loop phase
	// behind read_qps, sized to take about closedShare of --seconds.
	ClosedOps int `json:"closed_ops"`
	// Setups is how many times a run boots; setup_s is their median.
	Setups int `json:"setups"`
	// TracedOps is the length of the traced run's operation sequence.
	TracedOps int `json:"traced_ops"`
}

// Parameters every workload shares.
const (
	dataset = "dbpedia"
	// closedShare is the share of --seconds left to the closed-loop phase
	// behind read_qps; the open-loop phase runs for the rest.
	closedShare = 0.1
	// minReads and minWrites are the fewest samples the reported
	// percentiles rest on: ten beyond read p99 and write p95.
	minReads  = 1000
	minWrites = 200
	// maxLagP99MS bounds the generator's own dispatch lag: a run whose p99
	// lag exceeds it measured the generator, not the server, and fails.
	maxLagP99MS = 20
	// zipfSkew is the skew of reads over a fixed query set.
	zipfSkew = 1.1
)

//go:embed workloads.json
var specsJSON []byte

// loadSpecs decodes the embedded workloads.json.
func loadSpecs() (map[string]workloadSpec, error) {
	var file struct {
		Workloads map[string]workloadSpec `json:"workloads"`
	}
	if err := json.Unmarshal(specsJSON, &file); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return file.Workloads, nil
}

// medianSetup reports setup_s as the median boot and keeps each boot
// phase's median for the traced run's per-layer breakdown.
func medianSetup(times []setupTimes) (total float64, phases setupTimes) {
	pick := func(f func(setupTimes) time.Duration) time.Duration {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = float64(f(t))
		}
		return time.Duration(median(xs))
	}
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.total().Seconds()
	}
	phases = setupTimes{
		build:       pick(func(t setupTimes) time.Duration { return t.build }),
		newSys:      pick(func(t setupTimes) time.Duration { return t.newSys }),
		models:      pick(func(t setupTimes) time.Duration { return t.models }),
		greedy:      pick(func(t setupTimes) time.Duration { return t.greedy }),
		materialize: pick(func(t setupTimes) time.Duration { return t.materialize }),
		checkpoint:  pick(func(t setupTimes) time.Duration { return t.checkpoint }),
	}
	return median(xs), phases
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// count tallies attempted and failed samples and adds the phase to the run's totals.
func (r *run) count(ss []sample) error {
	var first string
	for i := range ss {
		r.attempted++
		if !ss[i].ok() {
			r.failed++
			if first == "" {
				first = ss[i].err
			}
		}
	}
	if first != "" {
		return fmt.Errorf("%d of %d operations failed; first: %s", r.failed, r.attempted, first)
	}
	return nil
}

// checkLag enforces the generator's dispatch-lag bound.
func (r *run) checkLag(ss []sample) error {
	lags := make([]float64, len(ss))
	for i := range ss {
		lags[i] = ms(ss[i].lag)
	}
	p99 := percentile(lags, 0.99)
	r.props["dispatch_lag_p99_ms"] = round3(p99)
	r.props["dispatch_lag_max_ms"] = round3(percentile(lags, 1))
	if p99 > maxLagP99MS {
		return fmt.Errorf("generator dispatch lag p99 %.3f ms exceeds the %d ms bound", p99, maxLagP99MS)
	}
	return nil
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
