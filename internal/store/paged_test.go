package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sofos/internal/rdf"
)

// pagedTestGraph builds a block-codec graph of about n triples with a live
// overlay (inserts and tombstones), so a paged snapshot of it exercises every
// v3 section.
func pagedTestGraph(t testing.TB, n int) *Graph {
	t.Helper()
	g := NewGraph()
	base := randomGraph(rand.New(rand.NewSource(7)), n).Triples()
	if _, err := g.LoadTriples(base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/10+1; i++ {
		g.MustAdd(tr("extra"+itoa(i), "pextra", "oextra"+itoa(i%3)))
		g.Remove(base[(i*7)%len(base)])
	}
	return g
}

// pagedBytes serializes the graph as a v3 snapshot with the given page size.
func pagedBytes(t testing.TB, g *Graph, pageSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.SavePaged(&buf, pageSize); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeSnapshotFile materializes snapshot bytes as a file for LoadFileWith.
func writeSnapshotFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// scanOutcome runs a full scan over the graph, classifying the result: count
// of yielded triples on success, or the message of a tagged corruption panic
// (the only panic mmap-backed runs are allowed — lazy CRC verification fires
// on first decode). Any other panic propagates and fails the test.
func scanOutcome(g *Graph) (n int, corrupt string) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "store: corrupt block run: ") {
				panic(r)
			}
			corrupt = msg
		}
	}()
	it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
	for it.Next() {
		n++
	}
	return n, ""
}

// TestPagedRoundTripStorages loads one paged snapshot under every storage and
// checks the content is bit-identical to the source graph, and that the
// storage accounting (mapped bytes, page counts) tells the truth.
func TestPagedRoundTripStorages(t *testing.T) {
	g := pagedTestGraph(t, 400)
	want := g.SortedTriples()
	for _, pageSize := range []int{4096, defaultPageSize} {
		path := writeSnapshotFile(t, pagedBytes(t, g, pageSize))
		for _, st := range []Storage{StorageHeap, StorageMmap} {
			loaded, err := LoadFileWith(path, st)
			if err != nil {
				t.Fatalf("page %d, %v: %v", pageSize, st, err)
			}
			got := loaded.SortedTriples()
			if len(got) != len(want) {
				t.Fatalf("page %d, %v: %d triples, want %d", pageSize, st, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("page %d, %v: triple %d = %v, want %v", pageSize, st, i, got[i], want[i])
				}
			}
			ms := loaded.MemStats()
			if st == StorageMmap {
				if ms.Storage != "mmap" || ms.MappedBytes == 0 || ms.Pages == 0 || ms.PageSize != pageSize {
					t.Fatalf("page %d mmap stats wrong: %+v", pageSize, ms)
				}
				if ms.SPO.Mapped == 0 {
					t.Fatalf("page %d mmap: SPO reports no mapped payload: %+v", pageSize, ms.SPO)
				}
			} else if ms.Storage != "heap" || ms.MappedBytes != 0 || ms.Pages == 0 {
				t.Fatalf("page %d heap stats wrong: %+v", pageSize, ms)
			}
		}
	}
}

// TestPagedLoadSkipsPayloadReads is the O(open) recovery proof: a corrupted
// byte inside a payload page must not be noticed by an mmap load — the
// directory is validated, payload pages are not read — and must then be
// caught by the lazy per-block CRC as a tagged panic on first scan. The heap
// load of the same bytes pays O(data) anyway and must refuse up front.
func TestPagedLoadSkipsPayloadReads(t *testing.T) {
	g := pagedTestGraph(t, 600)
	// Compact so the overlay is empty: with overlay sections present, load
	// legitimately decodes the O(overlay) blocks its membership checks touch.
	g.Compact()
	data := pagedBytes(t, g, 4096)

	// Locate the page region from a clean load's own accounting, then corrupt
	// the very first payload byte — block 0 of the SPO run.
	clean, err := LoadFileWith(writeSnapshotFile(t, data), StorageHeap)
	if err != nil {
		t.Fatal(err)
	}
	regionStart := len(data) - clean.MemStats().Pages*4096
	mut := append([]byte(nil), data...)
	mut[regionStart] ^= 0x40
	path := writeSnapshotFile(t, mut)

	loaded, err := LoadFileWith(path, StorageMmap)
	if err != nil {
		t.Fatalf("mmap load read payload bytes at boot (failed with %v); recovery is not O(open)", err)
	}
	if _, corrupt := scanOutcome(loaded); corrupt == "" {
		t.Fatal("scan over the corrupted block did not trip the lazy CRC")
	}

	if _, err := LoadFileWith(path, StorageHeap); err == nil {
		t.Fatal("heap load accepted a corrupt payload page; eager CRC verification is gone")
	}
}

// TestMmapLoadVerifiesLazily pins that an mmap load checks no payload CRC
// until a read needs the block: a point lookup verifies at most the one
// block it reads, and a full scan then verifies the whole run.
func TestMmapLoadVerifiesLazily(t *testing.T) {
	g := pagedTestGraph(t, 3*blockSize)
	g.Compact() // no overlay: load's membership checks would read blocks
	loaded, err := LoadFileWith(writeSnapshotFile(t, pagedBytes(t, g, 4096)), StorageMmap)
	if err != nil {
		t.Fatal(err)
	}
	ms := loaded.MemStats()
	if ms.SPO.Blocks < 2 || ms.SPO.Verified+ms.POS.Verified+ms.OSP.Verified != 0 {
		t.Fatalf("fresh mmap load: %d SPO blocks, %d/%d/%d verified; want ≥2 blocks, none verified",
			ms.SPO.Blocks, ms.SPO.Verified, ms.POS.Verified, ms.OSP.Verified)
	}
	probe := g.SortedTriples()[g.Len()/2]
	if !loaded.Contains(probe) {
		t.Fatalf("Contains(%v) = false", probe)
	}
	if v := loaded.MemStats().SPO.Verified; v > 1 {
		t.Fatalf("one point lookup verified %d of %d SPO blocks", v, ms.SPO.Blocks)
	}
	if n, corrupt := scanOutcome(loaded); corrupt != "" || n != loaded.Len() {
		t.Fatalf("full scan: %d triples (want %d), corruption %q", n, loaded.Len(), corrupt)
	}
	if ms := loaded.MemStats(); ms.SPO.Verified != ms.SPO.Blocks {
		t.Fatalf("after a full scan %d of %d SPO blocks verified", ms.SPO.Verified, ms.SPO.Blocks)
	}
}

// TestPagedTruncationEveryPrefix feeds every prefix of a v3 snapshot through
// the byte loader (heap) and, at a stride, through file loads under both
// storages: nothing but the full input may load.
func TestPagedTruncationEveryPrefix(t *testing.T) {
	full := pagedBytes(t, pagedTestGraph(t, 120), minPageSize)
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
	dir := t.TempDir()
	for cut := 0; cut < len(full); cut += 13 {
		path := filepath.Join(dir, "cut.snap")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, st := range []Storage{StorageHeap, StorageMmap} {
			if _, err := LoadFileWith(path, st); err == nil {
				t.Fatalf("%v: truncated file (%d/%d bytes) loaded successfully", st, cut, len(full))
			}
		}
	}
}

// TestPagedBitFlipsBothStorages flips bits across a whole v3 snapshot. Under
// heap storage every outcome must be an error or a fully consistent graph
// (eager CRC). Under mmap a flip in a payload page legitimately surfaces
// later, as a tagged corruption panic on the first scan that decodes the
// block — anything else (wrong counts, untagged panic) is a bug.
func TestPagedBitFlipsBothStorages(t *testing.T) {
	full := pagedBytes(t, pagedTestGraph(t, 120), minPageSize)
	step := 1
	if testing.Short() {
		step = 7
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.snap")
	for off := 0; off < len(full); off += step {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[off] ^= bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := LoadFileWith(path, StorageHeap)
			if err == nil {
				if n, corrupt := scanOutcome(g); corrupt != "" {
					t.Fatalf("flip at %d/%#x: heap load accepted bytes that scan as corrupt: %s", off, bit, corrupt)
				} else if n != g.Len() {
					t.Fatalf("flip at %d/%#x: heap Len()=%d but scan found %d", off, bit, g.Len(), n)
				}
			}
			g, err = LoadFileWith(path, StorageMmap)
			if err != nil {
				continue
			}
			if n, corrupt := scanOutcome(g); corrupt == "" && n != g.Len() {
				t.Fatalf("flip at %d/%#x: mmap Len()=%d but scan found %d", off, bit, g.Len(), n)
			}
		}
	}
}

// TestPagedHugeCounts feeds v3 headers whose section and page counts demand
// absurd allocations; every one must fail on the reads or the size equation,
// never by exhausting memory.
func TestPagedHugeCounts(t *testing.T) {
	var vbuf [binary.MaxVarintLen64]byte
	uv := func(b *bytes.Buffer, v uint64) { b.Write(vbuf[:binary.PutUvarint(vbuf[:], v)]) }
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(snapshotMagicV3)
		b.WriteByte(1)
		uv(&b, blockSize)
		uv(&b, minPageSize)
		uv(&b, 1)                        // one term
		b.Write([]byte{0, 1, 'x', 0, 0}) // IRI "x"
		uv(&b, 0)                        // no overlay adds
		uv(&b, 0)                        // no overlay dels
		return &b
	}
	load := func(b *bytes.Buffer) error {
		_, err := Load(bytes.NewReader(b.Bytes()))
		return err
	}
	// Huge count-section length.
	b := header()
	uv(b, 1<<40)
	if load(b) == nil {
		t.Fatal("huge count-section length accepted")
	}
	// Valid empty count sections, then a huge key count.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 0)
	}
	uv(b, 1<<50) // SPO key count
	uv(b, 1)
	if load(b) == nil {
		t.Fatal("huge key count accepted")
	}
	// Huge page count for a one-block run.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 0)
	}
	uv(b, 1)     // one key
	uv(b, 1)     // one block
	uv(b, 1<<50) // pages
	if load(b) == nil {
		t.Fatal("huge page count accepted")
	}
	// Structurally plausible counts whose page regions dwarf the input: the
	// exact-size equation must reject without allocating page space.
	b = header()
	for i := 0; i < 3; i++ {
		uv(b, 1)
		uv(b, 1)
		uv(b, 1)
	}
	for k := 0; k < 3; k++ {
		uv(b, 1) // one key
		uv(b, 1) // one block
		uv(b, 1) // one page
		uv(b, 1) // block count=1
		for c := 0; c < 6; c++ {
			uv(b, 1) // min/max fences
		}
		uv(b, 0)                    // plen (single-key block)
		uv(b, 0)                    // pageIdx
		uv(b, 0)                    // pageOff
		b.Write([]byte{0, 0, 0, 0}) // payload CRC of empty payload? (wrong on purpose is fine)
	}
	if load(b) == nil {
		t.Fatal("undersized page region accepted")
	}
}

// TestLegacySnapshotsLoadUnderBothStorages pins backward compatibility: v1
// (flat) and v2 (block) snapshot files must keep loading whatever the
// -storage setting, falling back to heap residency.
func TestLegacySnapshotsLoadUnderBothStorages(t *testing.T) {
	g := pagedTestGraph(t, 150)
	want := g.SortedTriples()

	var v2 bytes.Buffer
	if err := g.saveV2(&v2); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := g.saveV1(&v1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1.Bytes()}, {"v2", v2.Bytes()}} {
		path := writeSnapshotFile(t, tc.data)
		for _, st := range []Storage{StorageHeap, StorageMmap} {
			loaded, err := LoadFileWith(path, st)
			if err != nil {
				t.Fatalf("%s under %v: %v", tc.name, st, err)
			}
			got := loaded.SortedTriples()
			if len(got) != len(want) {
				t.Fatalf("%s under %v: %d triples, want %d", tc.name, st, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s under %v: triple %d differs", tc.name, st, i)
				}
			}
			if ms := loaded.MemStats(); ms.MappedBytes != 0 {
				t.Fatalf("%s under %v: legacy snapshot reports %d mapped bytes", tc.name, st, ms.MappedBytes)
			}
		}
	}
}

// TestPagedSourceTracking pins the hard-link contract: a graph loaded from a
// paged file advertises it as a linkable source exactly until the first
// mutation, and re-adopting after a fresh snapshot restores it. Compaction
// alone must not invalidate the source — it changes layout, not content.
func TestPagedSourceTracking(t *testing.T) {
	g := pagedTestGraph(t, 100)
	path := writeSnapshotFile(t, pagedBytes(t, g, minPageSize))
	loaded, err := LoadFileWith(path, StorageHeap)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := loaded.PagedSource(); !ok || src != path {
		t.Fatalf("fresh load: PagedSource = %q, %v; want %q, true", src, ok, path)
	}
	loaded.SetVersion(42) // restore-time counter reinstatement must not dirty
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("SetVersion invalidated the paged source")
	}
	loaded.Compact()
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("compaction invalidated the paged source")
	}
	loaded.MustAdd(tr("fresh", "p", "o"))
	if src, ok := loaded.PagedSource(); ok {
		t.Fatalf("mutation left the paged source valid: %q", src)
	}
	loaded.AdoptPagedSource(path)
	if _, ok := loaded.PagedSource(); !ok {
		t.Fatal("AdoptPagedSource did not restore the source")
	}
	if !loaded.Remove(tr("fresh", "p", "o")) {
		t.Fatal("remove failed")
	}
	if _, ok := loaded.PagedSource(); ok {
		t.Fatal("removal left the paged source valid")
	}
}

// TestCloneSharesMappedRuns pins that cloning an mmap-backed graph does not
// copy the runs onto the heap: catalog restore clones the base graph for G+,
// and a deep copy would pull the whole file resident at boot.
func TestCloneSharesMappedRuns(t *testing.T) {
	g := pagedTestGraph(t, 200)
	path := writeSnapshotFile(t, pagedBytes(t, g, 4096))
	loaded, err := LoadFileWith(path, StorageMmap)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.Clone()
	cms, lms := c.MemStats(), loaded.MemStats()
	if cms.SPO.Mapped != lms.SPO.Mapped || cms.SPO.Mapped == 0 {
		t.Fatalf("clone SPO mapped %d bytes, original %d; runs were copied", cms.SPO.Mapped, lms.SPO.Mapped)
	}
	// The clone must stay independent for mutations...
	c.MustAdd(tr("cloneonly", "p", "o"))
	if loaded.Contains(tr("cloneonly", "p", "o")) {
		t.Fatal("clone mutation leaked into the original")
	}
	// ...and identical for reads.
	want, got := loaded.SortedTriples(), c.SortedTriples()
	if len(got) != len(want)+1 {
		t.Fatalf("clone has %d triples, original %d", len(got), len(want))
	}
}

// FuzzPagedSnapshotLoad hammers the v3 loader with mutated paged snapshots:
// every input either loads into a consistent graph or errors — no panics
// (heap loads verify payloads eagerly), no runaway allocations.
func FuzzPagedSnapshotLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagicV3))
	f.Add(pagedBytes(f, pagedTestGraph(f, 60), minPageSize))
	var empty bytes.Buffer
	if err := NewGraph().SavePaged(&empty, minPageSize); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := 0
		it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
		for it.Next() {
			n++
		}
		if n != g.Len() {
			t.Fatalf("loaded graph inconsistent: Len()=%d, scan=%d", g.Len(), n)
		}
	})
}
