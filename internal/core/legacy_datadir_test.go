package core

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofos/internal/datasets"
	"sofos/internal/persist"
	"sofos/internal/rdf"
)

// v1DataDirQuery is the first query of `sofos workload -dataset lubm -scale 1
// -n 5`, the workload the fixture's server answered before it was killed.
const v1DataDirQuery = `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?univ (COUNT(?pub) AS ?__agg) WHERE {
  ?prof <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> ?dept .
  ?dept <http://swat.cse.lehigh.edu/onto/univ-bench.owl#subOrganizationOf> ?univ .
  ?prof <http://swat.cse.lehigh.edu/onto/univ-bench.owl#rank> ?rank .
  ?pub <http://swat.cse.lehigh.edu/onto/univ-bench.owl#publicationAuthor> ?prof .
  FILTER ((?rank = "AssistantProfessor"))
} GROUP BY ?univ`

// TestRestoreV1DataDir recovers testdata/v1-datadir, a data directory written
// by a flat-codec server (`sofos-serve -dataset lubm -scale 1 -k 2
// -codec=flat -wal-sync always`) from before the block layout became the only
// one: a v1 graph snapshot, its catalog state, and one WAL segment holding a
// single /v1/update insert, left by a kill -9. Recovery must load the v1
// snapshot into block runs, replay the logged batch, and land on the state
// the server reported just before the kill.
func TestRestoreV1DataDir(t *testing.T) {
	dst := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v1-datadir"), dst)
	dir, err := persist.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := dir.LatestCheckpoint()
	if err != nil || cp == nil {
		t.Fatalf("latest checkpoint: %v, %v", cp, err)
	}
	if head, err := os.ReadFile(cp.GraphPath()); err != nil || string(head[:8]) != "SOFOSGR1" {
		t.Fatalf("fixture graph snapshot is not v1 (err %v)", err)
	}
	spec, ok := datasets.ByName("lubm")
	if !ok {
		t.Fatal("lubm spec missing")
	}
	f, err := spec.Facet()
	if err != nil {
		t.Fatal(err)
	}
	sys, rec, err := Restore(dir, f, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The server's /v1/stats just before the kill: generation 3 (2 boot
	// views + 1 update) over 1968 base triples.
	if got := sys.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3", got)
	}
	if got := sys.Graph.Len(); got != 1968 {
		t.Fatalf("base triples = %d, want 1968", got)
	}
	if rec.ReplayedBatches < 1 {
		t.Fatalf("replayed %d batches, want >= 1 (stats %+v)", rec.ReplayedBatches, rec)
	}
	if c := sys.Graph.MemStats().Codec; c != "block" {
		t.Fatalf("restored graph codec = %q, want block", c)
	}
	inserted := rdf.Triple{
		S: rdf.NewIRI("http://codec.test/s"),
		P: rdf.NewIRI("http://codec.test/p"),
		O: rdf.NewIRI("http://codec.test/o"),
	}
	if !sys.Graph.Contains(inserted) {
		t.Fatal("inserted triple lost in recovery")
	}

	// The answer through the restored views must equal direct evaluation over
	// the restored base graph with no views, and the answer the server gave
	// before the kill.
	got := mustAnswer(t, sys, v1DataDirQuery)
	base, err := New(sys.Graph.Clone(), f)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustAnswer(t, base, v1DataDirQuery); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored answer %v, base-graph answer %v", got, want)
	}
	preKill := [][]string{{"<http://www.university.edu/univ0>", `"150"^^<http://www.w3.org/2001/XMLSchema#integer>`}}
	if !reflect.DeepEqual(got, preKill) {
		t.Fatalf("restored answer %v, pre-kill answer %v", got, preKill)
	}
}

// copyTree copies the regular files under src into dst, so a test can restore
// a committed fixture without writing into testdata/.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
