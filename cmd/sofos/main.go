// Command sofos is the demonstration walkthrough of the SOFOS system as a
// CLI: each subcommand reproduces one panel of the GUI in Figure 3 of the
// paper.
//
//	sofos lattice  -dataset dbpedia            # panel ①: full lattice view
//	sofos inspect  -dataset dbpedia -view lang+year   # click a lattice node
//	sofos select   -dataset dbpedia -model aggvalues -k 3   # panel ②
//	sofos compare  -dataset dbpedia -k 3       # panel ② across all models
//	sofos analyze  -dataset dbpedia -k 3       # panel ④: per-query analysis
//	sofos query    -dataset dbpedia -k 3 -q 'SELECT ...'    # ad-hoc query
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sofos/internal/benchkit"
	"sofos/internal/core"
	"sofos/internal/cost"
	"sofos/internal/datasets"
	"sofos/internal/experiments"
	"sofos/internal/facet"
	"sofos/internal/persist"
	"sofos/internal/selection"
	"sofos/internal/store"
	"sofos/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sofos:", err)
		os.Exit(1)
	}
}

// commonFlags are shared by all subcommands.
type commonFlags struct {
	dataset string
	scale   int
	seed    int64
	k       int
	model   string
	workers int
	storage string
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.dataset, "dataset", "dbpedia", "dataset: lubm, dbpedia, swdf")
	fs.IntVar(&c.scale, "scale", 0, "dataset scale (0 = default)")
	fs.Int64Var(&c.seed, "seed", 1, "seed")
	fs.IntVar(&c.k, "k", 3, "view budget")
	fs.StringVar(&c.model, "model", "aggvalues", "cost model: random, triples, aggvalues, nodes")
	fs.IntVar(&c.workers, "workers", 0, "parallel execution workers per query (0 = all CPUs, 1 = serial)")
	fs.StringVar(&c.storage, "storage", "heap", "paged-snapshot load storage: heap or mmap (page-cache backed)")
	return c
}

// applyStorage validates the -storage flag and installs it as the
// process-wide default, so every snapshot the subcommand loads uses it.
func (c *commonFlags) applyStorage() error {
	st, err := store.ParseStorage(c.storage)
	if err != nil {
		return err
	}
	store.SetDefaultStorage(st)
	return nil
}

// opts maps the flags to system options.
func (c *commonFlags) opts() core.Options { return core.Options{Workers: c.workers} }

// buildSystem constructs the system for the flags.
func buildSystem(c *commonFlags) (*core.System, error) {
	g, f, err := datasets.BuildWithFacet(c.dataset, c.scale, c.seed)
	if err != nil {
		return nil, err
	}
	return core.NewWithOptions(g, f, c.opts())
}

// pickModel resolves a model name.
func pickModel(s *core.System, c *commonFlags) (cost.Model, error) {
	models, err := s.AnalyticModels(c.seed)
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		if m.Name() == c.model {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown model %q (use random, triples, aggvalues, or nodes)", c.model)
}

const usage = `usage: sofos <command> [flags]

commands:
  lattice   show the full view lattice of a dataset's facet (panel ①)
  inspect   show the materialized contents of one view (lattice node click)
  select    run view selection under one cost model and materialize (panel ②)
  compare   compare all cost models at a budget on a workload (panel ②)
  analyze   per-query performance with and without views (panel ④)
  query     answer one SPARQL query, preferring materialized views
  workload  generate a reproducible query workload and write it to a file
  replay    replay a saved workload against a model's selection
  snapshot  dump a dataset to (or restore one from) a server data directory

run 'sofos <command> -h' for flags.`

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		fmt.Fprintln(w, usage)
		return nil
	}
	switch args[0] {
	case "lattice":
		return cmdLattice(args[1:], w)
	case "inspect":
		return cmdInspect(args[1:], w)
	case "select":
		return cmdSelect(args[1:], w)
	case "compare":
		return cmdCompare(args[1:], w)
	case "analyze":
		return cmdAnalyze(args[1:], w)
	case "query":
		return cmdQuery(args[1:], w)
	case "workload":
		return cmdWorkload(args[1:], w)
	case "replay":
		return cmdReplay(args[1:], w)
	case "snapshot":
		return cmdSnapshot(args[1:], w)
	case "-h", "--help", "help":
		fmt.Fprintln(w, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage)
	}
}

// cmdLattice prints the full lattice statistics (panel ①).
func cmdLattice(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lattice", flag.ContinueOnError)
	c := addCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	p, err := s.Provider()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n|G| = %d triples, facet dims = %v, lattice = %d views\n\n",
		s.Facet, s.Graph.Len(), s.Facet.Dims, s.Lattice.Size())
	t := benchkit.NewTable("Full lattice", "level", "view", "groups", "enc.triples", "nodes", "bytes")
	for lev, vs := range s.Lattice.Levels() {
		for _, v := range vs {
			st := p.MustStats(v.Mask)
			t.AddRow(fmt.Sprint(lev), v.ID(), fmt.Sprint(st.Groups),
				fmt.Sprint(st.Triples), fmt.Sprint(st.Nodes), benchkit.FmtBytes(st.Bytes))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmaterializing the full lattice would add %d triples (%.2fx the graph)\n",
		p.TotalTriples(), 1+float64(p.TotalTriples())/float64(s.Graph.Len()))
	return nil
}

// cmdInspect shows one view's contents, like clicking a lattice node.
func cmdInspect(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	c := addCommon(fs)
	viewID := fs.String("view", "", "view id: dimension names joined by '+', or 'apex'")
	limit := fs.Int("limit", 10, "max groups to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	var v facet.View
	if *viewID == "apex" || *viewID == "" {
		v = s.Facet.View(0)
	} else {
		v, err = s.Facet.ViewByDims(strings.Split(*viewID, "+")...)
		if err != nil {
			return err
		}
	}
	mat, err := s.Catalog.Materialize(v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "view %s: %d groups, %d encoding triples, %d nodes\nquery:\n%s\n\n",
		v, mat.Data.NumGroups(), mat.Triples, mat.Nodes, v.Query())
	header := append(append([]string{}, v.Dims()...), s.Facet.Agg.String())
	t := benchkit.NewTable("contents (first groups)", header...)
	for i, g := range mat.Data.Groups {
		if i >= *limit {
			break
		}
		row := make([]string, 0, len(header))
		for _, kv := range g.Key {
			row = append(row, kv.String())
		}
		row = append(row, g.Agg.String())
		t.AddRow(row...)
	}
	return t.Render(w)
}

// cmdSelect runs one model's selection and materializes it.
func cmdSelect(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	c := addCommon(fs)
	memBudget := fs.Int64("memory", 0, "byte budget instead of view count (0 = use -k)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	m, err := pickModel(s, c)
	if err != nil {
		return err
	}
	var selResult *selection.Selection
	if *memBudget > 0 {
		selResult, err = s.SelectViewsByMemory(m, *memBudget)
	} else {
		selResult, err = s.SelectViews(m, c.k)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model %s selected %d views:\n", m.Name(), len(selResult.Masks()))
	for _, mask := range selResult.Masks() {
		v := s.Facet.View(mask)
		mat, err := s.Catalog.Materialize(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-30s cost=%-12s groups=%-6d triples=%-6d (%s)\n",
			v.ID(), benchkit.FmtFloat(m.Cost(v)), mat.Data.NumGroups(), mat.Triples,
			benchkit.FmtDuration(mat.Elapsed))
	}
	fmt.Fprintf(w, "G+ now has %d triples (amplification %.2fx)\n",
		s.Catalog.Expanded().Len(), s.Catalog.StorageAmplification())
	return nil
}

// cmdCompare runs the full model comparison (panel ②).
func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	c := addCommon(fs)
	wl := fs.Int("workload", 30, "workload size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	env, err := experiments.NewEnvWithOptions(c.dataset, c.scale, c.seed, *wl, c.opts())
	if err != nil {
		return err
	}
	t, err := experiments.E2CostModels(env, c.k, nil)
	if err != nil {
		return err
	}
	return t.Render(w)
}

// cmdAnalyze runs the per-query analyzer (panel ④).
func cmdAnalyze(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	c := addCommon(fs)
	wl := fs.Int("workload", 20, "workload size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	env, err := experiments.NewEnvWithOptions(c.dataset, c.scale, c.seed, *wl, c.opts())
	if err != nil {
		return err
	}
	m, err := pickModel(env.System, c)
	if err != nil {
		return err
	}
	t, err := experiments.E4QueryAnalyzer(env, m, c.k)
	if err != nil {
		return err
	}
	return t.Render(w)
}

// cmdWorkload generates a reproducible workload and writes it out.
func cmdWorkload(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	c := addCommon(fs)
	n := fs.Int("n", 30, "number of queries")
	filterProb := fs.Float64("filters", 0.25, "per-dimension FILTER probability")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	wl, err := s.GenerateWorkload(workload.Config{Size: *n, Seed: c.seed, FilterProb: *filterProb})
	if err != nil {
		return err
	}
	dest := w
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer f.Close()
		dest = f
	}
	if err := wl.Save(dest); err != nil {
		return err
	}
	if *out != "" {
		st := wl.Summarize()
		fmt.Fprintf(w, "wrote %d queries (%d with filters) to %s\n", st.Queries, st.WithFilters, *out)
	}
	return nil
}

// cmdReplay loads a saved workload and runs it under a model's selection,
// either in process or against a running sofos-serve instance.
func cmdReplay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	c := addCommon(fs)
	file := fs.String("queries", "", "workload file written by 'sofos workload'")
	clients := fs.Int("clients", 1, "concurrent replay clients (multi-client throughput; -workers controls per-query parallelism)")
	serverURL := fs.String("server", "", "replay over HTTP against a sofos-serve base URL instead of in process (views and workers are the server's)")
	rounds := fs.Int("rounds", 1, "with -server: replay the workload this many times (repeat rounds hit the result cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("replay requires -queries <file>")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	if *serverURL != "" {
		// HTTP replay only sends query text; the serving side owns the
		// dataset and views, so skip building the (possibly huge) graph.
		wl, err := workload.LoadQueries(f)
		if err != nil {
			return err
		}
		rep, err := workload.ReplayHTTP(workload.HTTPConfig{
			BaseURL: *serverURL, Clients: *clients, Rounds: *rounds,
		}, wl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replayed %d requests against %s (%d clients, %d rounds)\n",
			rep.Timing.N(), *serverURL, *clients, *rounds)
		fmt.Fprintf(w, "mean %s  p50 %s  p95 %s  view hits %.0f%%  cache hits %.0f%%\n",
			benchkit.FmtDuration(rep.Timing.Mean()),
			benchkit.FmtDuration(rep.Timing.P50()),
			benchkit.FmtDuration(rep.Timing.P95()),
			rep.HitRate()*100,
			rep.CacheHitRate()*100)
		return nil
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	wl, err := workload.Load(f, s.Facet)
	if err != nil {
		return err
	}
	m, err := pickModel(s, c)
	if err != nil {
		return err
	}
	sel, err := s.SelectViews(m, c.k)
	if err != nil {
		return err
	}
	if _, err := s.Materialize(sel); err != nil {
		return err
	}
	rep, err := s.RunWorkloadParallel(wl, *clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d queries under %s (k=%d, %d clients, %d workers/query)\n",
		rep.Timing.N(), m.Name(), c.k, *clients, rep.Workers)
	fmt.Fprintf(w, "mean %s  p50 %s  p95 %s  hit rate %.0f%%  amplification %.2fx\n",
		benchkit.FmtDuration(rep.Timing.Mean()),
		benchkit.FmtDuration(rep.Timing.P50()),
		benchkit.FmtDuration(rep.Timing.P95()),
		rep.HitRate()*100,
		s.Catalog.StorageAmplification())
	return nil
}

// cmdQuery answers one ad-hoc query with views materialized by a model.
func cmdQuery(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	c := addCommon(fs)
	q := fs.String("q", "", "SPARQL query text (empty: run the facet's template query)")
	limit := fs.Int("limit", 15, "max rows to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	m, err := pickModel(s, c)
	if err != nil {
		return err
	}
	sel, err := s.SelectViews(m, c.k)
	if err != nil {
		return err
	}
	if _, err := s.Materialize(sel); err != nil {
		return err
	}
	text := *q
	if text == "" {
		text = s.Facet.View(s.Facet.FullMask()).AnalyticalQuery().String()
	}
	ans, err := s.AnswerString(text)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "answered via %s in %s (%d rows)\n",
		ans.ViaLabel(), benchkit.FmtDuration(ans.Elapsed), len(ans.Result.Rows))
	if ans.Reason != "" {
		fmt.Fprintf(w, "fallback reason: %s\n", ans.Reason)
	}
	if ans.Rewritten != nil {
		fmt.Fprintf(w, "rewritten query:\n%s\n", ans.Rewritten)
	}
	t := benchkit.NewTable("results", ans.Result.Vars...)
	for i, row := range ans.Result.Rows {
		if i >= *limit {
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}

// cmdSnapshot dumps a dataset into — or inspects/restores one from — the
// persist checkpoint format sofos-serve boots from, so offline tooling and
// the server share one on-disk layout. Dumping builds the dataset, runs the
// model's view selection, materializes it, and writes a checkpoint into the
// data directory; `sofos-serve -data-dir` then starts warm without touching
// the generators. Restoring runs full recovery (checkpoint load + WAL-suffix
// replay) and prints what the directory contains.
func cmdSnapshot(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	c := addCommon(fs)
	out := fs.String("out", "", "dump: data directory to write a checkpoint into")
	in := fs.String("in", "", "restore: data directory to recover and describe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.applyStorage(); err != nil {
		return err
	}
	switch {
	case (*out == "") == (*in == ""):
		return fmt.Errorf("snapshot: use exactly one of -out (dump) or -in (restore)")
	case *out != "":
		return snapshotDump(c, *out, w)
	default:
		return snapshotRestore(*in, c.workers, w)
	}
}

// snapshotDump materializes the model's selection and checkpoints the state.
func snapshotDump(c *commonFlags, path string, w io.Writer) error {
	s, err := buildSystem(c)
	if err != nil {
		return err
	}
	if c.k > 0 {
		m, err := pickModel(s, c)
		if err != nil {
			return err
		}
		sel, err := s.SelectViews(m, c.k)
		if err != nil {
			return err
		}
		if _, err := s.Materialize(sel); err != nil {
			return err
		}
	}
	dir, err := persist.Open(path)
	if err != nil {
		return err
	}
	// Refuse to silently supersede another dataset's committed state: a new
	// checkpoint repoints CURRENT and obsoletes every logged batch.
	if prev, err := dir.LatestCheckpoint(); err != nil {
		return err
	} else if prev != nil && (prev.Manifest.Dataset != c.dataset ||
		prev.Manifest.Scale != c.scale || prev.Manifest.Seed != c.seed) {
		return fmt.Errorf("snapshot: %s holds %s scale %d seed %d; refusing to overwrite with %s scale %d seed %d",
			path, prev.Manifest.Dataset, prev.Manifest.Scale, prev.Manifest.Seed,
			c.dataset, c.scale, c.seed)
	}
	walSeq, err := persist.NextSegmentSeq(dir.WALDir())
	if err != nil {
		return err
	}
	cp, err := dir.WriteCheckpoint(persist.Manifest{
		Dataset:      c.dataset,
		Scale:        c.scale,
		Seed:         c.seed,
		GraphVersion: s.GraphVersion(),
		Generation:   s.Generation(),
		WALSeq:       walSeq,
		BaseTriples:  s.Graph.Len(),
		Views:        len(s.Catalog.Materialized()),
		CreatedUnix:  time.Now().Unix(),
	}, s.Graph.Save, s.Catalog.SaveState)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote checkpoint %d to %s: %s scale %d seed %d, %d triples, %d views, generation %d\n",
		cp.Manifest.Sequence, path, c.dataset, c.scale, c.seed,
		cp.Manifest.BaseTriples, cp.Manifest.Views, cp.Manifest.Generation)
	fmt.Fprintf(w, "serve it with: sofos-serve -dataset %s -scale %d -seed %d -data-dir %s\n",
		c.dataset, c.scale, c.seed, path)
	return nil
}

// snapshotRestore recovers a data directory and prints its contents.
func snapshotRestore(path string, workers int, w io.Writer) error {
	dir, err := persist.Open(path)
	if err != nil {
		return err
	}
	cp, err := dir.LatestCheckpoint()
	if err != nil {
		return err
	}
	if cp == nil {
		return fmt.Errorf("snapshot: %s has no checkpoint", path)
	}
	spec, ok := datasets.ByName(cp.Manifest.Dataset)
	if !ok {
		return fmt.Errorf("snapshot: manifest names unknown dataset %q", cp.Manifest.Dataset)
	}
	f, err := spec.Facet()
	if err != nil {
		return err
	}
	s, rec, err := core.Restore(dir, f, core.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored %s scale %d seed %d from checkpoint %d: %d triples, generation %d, graph version %d\n",
		cp.Manifest.Dataset, cp.Manifest.Scale, cp.Manifest.Seed, rec.CheckpointSeq,
		s.Graph.Len(), s.Generation(), s.GraphVersion())
	fmt.Fprintf(w, "wal replay: %d batches (%d triples), %d skipped, torn tail %v, in %s (snapshot load %s)\n",
		rec.ReplayedBatches, rec.ReplayedTriples, rec.SkippedBatches, rec.TornTail,
		benchkit.FmtDuration(rec.Elapsed), benchkit.FmtDuration(rec.SnapshotLoad))
	t := benchkit.NewTable("materialized views", "view", "groups", "triples", "stale", "last path")
	for _, m := range s.Catalog.Materialized() {
		t.AddRow(m.View().ID(),
			fmt.Sprintf("%d", m.Data.NumGroups()),
			fmt.Sprintf("%d", m.Triples),
			fmt.Sprintf("%v", s.Catalog.Stale(m.View().Mask)),
			m.Maint.LastPath)
	}
	return t.Render(w)
}
