// Command sofos-bench regenerates every experiment of EXPERIMENTS.md: the
// four GUI panels of the paper's Figure 3 plus the cost-fidelity, learned-
// model, memory-budget, and hands-on-challenge studies, across the three
// demonstration datasets.
//
// Usage:
//
//	sofos-bench                      # full run, tables to stdout
//	sofos-bench -quick               # reduced probes/epochs
//	sofos-bench -markdown -out EXPERIMENTS.out.md
//	sofos-bench -seed 7 -workload 60 -k 3
//	sofos-bench -workers 1           # force serial query execution
//	sofos-bench -maintenance         # update-heavy replay: incremental vs full refresh
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"sofos/internal/benchkit"
	"sofos/internal/core"
	"sofos/internal/experiments"
	"sofos/internal/server"
	"sofos/internal/store"
	"sofos/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sofos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sofos-bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment seed (datasets, workloads, models)")
	workload := fs.Int("workload", 60, "queries per workload")
	k := fs.Int("k", 3, "view budget for the cost-model comparison")
	quick := fs.Bool("quick", false, "reduced probes and training epochs")
	markdown := fs.Bool("markdown", false, "render tables as markdown")
	out := fs.String("out", "", "also write the report to this file")
	workers := fs.Int("workers", 0, "parallel execution workers per query (0 = all CPUs, 1 = serial)")
	maintenance := fs.Bool("maintenance", false, "run only the view-maintenance scenario: an update-heavy replay contrasting incremental O(|ΔG|) refresh with full recompute")
	maintRounds := fs.Int("maintenance-rounds", 20, "update batches to replay in the maintenance scenario")
	maintBatch := fs.Int("maintenance-batch", 16, "triples per update batch in the maintenance scenario")
	storageName := fs.String("storage", "heap", "paged-snapshot load storage: heap or mmap (page-cache backed)")
	reportMetrics := fs.String("report-metrics", "", "replay the workload against an in-process server and write its final /v1/metrics scrape to this file (a metric-shape fixture)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := store.ParseStorage(*storageName)
	if err != nil {
		return err
	}
	store.SetDefaultStorage(st)
	start := time.Now()
	var tables []*benchkit.Table
	if *maintenance {
		scale := 150
		if *quick {
			scale = 40
		}
		env, eerr := experiments.NewEnvWithOptions("dbpedia", scale, *seed, 1, core.Options{Workers: *workers})
		if eerr != nil {
			return eerr
		}
		table, eerr := experiments.EMaintenance(env, *maintRounds, *maintBatch)
		if eerr != nil {
			return eerr
		}
		tables = []*benchkit.Table{table}
	} else {
		tables, err = experiments.MeasureAllWithOptions(*seed, *workload, *k, *quick,
			core.Options{Workers: *workers})
		if err != nil {
			return err
		}
	}
	w := stdout
	var file *os.File
	if *out != "" {
		file, err = os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer file.Close()
		w = io.MultiWriter(stdout, file).(io.Writer)
	}
	fmt.Fprintf(w, "SOFOS experiment suite (seed=%d, workload=%d, k=%d, quick=%v)\n\n",
		*seed, *workload, *k, *quick)
	for _, t := range tables {
		if *markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			if err := t.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "total experiment time: %s\n", time.Since(start).Round(time.Millisecond))
	if *reportMetrics != "" {
		if err := dumpMetrics(*reportMetrics, *seed, *workload, *workers, *quick); err != nil {
			return fmt.Errorf("writing metrics fixture: %w", err)
		}
		fmt.Fprintf(w, "wrote /v1/metrics fixture to %s\n", *reportMetrics)
	}
	return nil
}

// dumpMetrics replays a generated workload against an in-process server and
// writes the server's final /v1/metrics scrape to path, so bench runs double
// as metric-shape fixtures: the exposition comes from exactly the code path
// production serving uses, after real queries populated every family.
func dumpMetrics(path string, seed int64, size, workers int, quick bool) error {
	scale := 150
	if quick {
		scale = 40
	}
	env, err := experiments.NewEnvWithOptions("dbpedia", scale, seed, size, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(server.New(env.System, server.Config{}).Handler())
	defer ts.Close()
	// Two rounds so the scrape shows both executed and cache-served queries.
	if _, err := workload.ReplayHTTP(workload.HTTPConfig{BaseURL: ts.URL, Rounds: 2}, env.Workload); err != nil {
		return err
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping /v1/metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
