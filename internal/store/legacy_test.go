package store

import (
	"bufio"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sofos/internal/rdf"
)

// appendVarintPayload encodes keys[1:] against keys[0] in the legacy
// delta/varint block layout (see legacy.go) — the inverse of decodeVarint.
func appendVarintPayload(dst []byte, keys []rdf.EncodedTriple) []byte {
	prev := keys[0][0]
	for _, k := range keys[1:] {
		dst = binary.AppendUvarint(dst, uint64(k[0]-prev))
		prev = k[0]
	}
	for c := 1; c < 3; c++ {
		base := int64(keys[0][c])
		for _, k := range keys[1:] {
			dst = binary.AppendVarint(dst, int64(k[c])-base)
		}
	}
	return dst
}

// saveV1 writes the graph as a legacy v1 snapshot — the format flat-codec
// graphs saved before the block layout became the only one — so the v1
// loader's round-trip and truncation tests keep real input. The committed
// testdata/legacy_v1.snap pins the bytes the last v1 writer produced.
func (g *Graph) saveV1(out io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	w := &snapshotWriter{bw: bufio.NewWriterSize(out, 1<<16)}
	if err := w.writeString(snapshotMagic); err != nil {
		return err
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := w.uvarint(uint64(g.n)); err != nil {
		return err
	}
	it := g.scanLocked(rdf.NoID, rdf.NoID, rdf.NoID)
	for it.Next() {
		s, p, o := it.Triple()
		if err := w.key(rdf.EncodedTriple{s, p, o}); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// saveV2 writes a block-codec graph as a legacy v2 snapshot, re-encoding
// every packed block in the varint layout, so compatibility tests can sweep
// v2 inputs of any shape. The committed fixtures in testdata/ pin the real
// bytes older writers produced.
func (g *Graph) saveV2(out io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	w := &snapshotWriter{bw: bufio.NewWriterSize(out, 1<<16)}
	if err := w.writeString(snapshotMagicV2); err != nil {
		return err
	}
	if err := w.writeByte(snapshotCodecVarint); err != nil {
		return err
	}
	if err := w.uvarint(blockSize); err != nil {
		return err
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := g.writeOverlays(w); err != nil {
		return err
	}
	brs, err := g.blockRunsLocked()
	if err != nil {
		return err
	}
	var a spanArena
	var keys []rdf.EncodedTriple
	var payload []byte
	for _, br := range brs {
		if err := w.uvarint(uint64(br.n)); err != nil {
			return err
		}
		if err := w.uvarint(uint64(len(br.meta))); err != nil {
			return err
		}
		for bi := range br.meta {
			m := &br.meta[bi]
			br.fill(&a, m.start, m.start+int(m.count))
			keys = keys[:0]
			for i := 0; i < a.n; i++ {
				keys = append(keys, a.key(i))
			}
			payload = appendVarintPayload(payload[:0], keys)
			if err := w.uvarint(uint64(m.count)); err != nil {
				return err
			}
			for _, t := range []rdf.EncodedTriple{m.min, m.max} {
				if err := w.key(t); err != nil {
					return err
				}
			}
			if err := w.uvarint(uint64(len(payload))); err != nil {
				return err
			}
			if err := w.writeRaw(payload); err != nil {
				return err
			}
		}
	}
	return w.bw.Flush()
}

// TestLegacyFixturesLoad loads v1, v2 and v3 snapshot files written by older
// writers (committed under testdata/: v1 by the flat-codec writer, v2 and v3
// with varint block payloads) under both storages: each must load into
// exactly the triple set recorded beside them, held in heap runs, and must
// not be adopted as a hard-linkable paged source.
func TestLegacyFixturesLoad(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "legacy.nt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := rdf.NewParser(f).ParseAll()
	if err != nil {
		t.Fatal(err)
	}
	rdf.SortTriples(want)
	if len(want) < 100 {
		t.Fatalf("fixture holds only %d triples", len(want))
	}
	for _, name := range []string{"legacy_v1.snap", "legacy_v2.snap", "legacy_v3.snap"} {
		path := filepath.Join("testdata", name)
		for _, st := range []Storage{StorageHeap, StorageMmap} {
			g, err := LoadFileWith(path, st)
			if err != nil {
				t.Fatalf("%s under %v: %v", name, st, err)
			}
			got := g.SortedTriples()
			if len(got) != len(want) {
				t.Fatalf("%s under %v: %d triples, want %d", name, st, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s under %v: triple %d = %v, want %v", name, st, i, got[i], want[i])
				}
			}
			if ms := g.MemStats(); ms.MappedBytes != 0 || ms.Storage != "heap" {
				t.Fatalf("%s under %v: legacy load not heap-resident: %+v", name, st, ms)
			}
			if src, ok := g.PagedSource(); ok {
				t.Fatalf("%s under %v: legacy file adopted as paged source %q", name, st, src)
			}
			// Point lookups go through the loaded runs' searches.
			for _, tr := range want {
				if !g.Contains(tr) {
					t.Fatalf("%s under %v: Contains(%v) = false", name, st, tr)
				}
			}
		}
	}
}
