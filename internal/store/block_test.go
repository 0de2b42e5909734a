package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"sofos/internal/rdf"
)

// sortedRandomKeys builds a strictly increasing key sequence with realistic
// clustering (small leading-column deltas, scattered trailing columns).
func sortedRandomKeys(rng *rand.Rand, n int) []rdf.EncodedTriple {
	set := make(map[rdf.EncodedTriple]struct{}, n)
	for len(set) < n {
		set[rdf.EncodedTriple{
			rdf.ID(1 + rng.Intn(n/3+1)),
			rdf.ID(1 + rng.Intn(16)),
			rdf.ID(1 + rng.Intn(n)),
		}] = struct{}{}
	}
	keys := make([]rdf.EncodedTriple, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// TestBlockRunAgainstFlat checks every run-interface primitive of the block
// encoding against the flat oracle over the same keys: search at every
// depth/bound, contains for hits and misses, keyAt at every position, fill
// windows, and alignSplit monotonicity.
func TestBlockRunAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 17} {
		keys := sortedRandomKeys(rng, n)
		br := checkRunAgainstFlat(t, rng, keys)
		// Fence overhead dominates below a block; compression only pays off
		// once runs actually span blocks.
		if fr := buildRun(flatCodec{}, keys); n >= blockSize && br.memBytes() >= fr.memBytes() {
			t.Errorf("n=%d: block run %d B not smaller than flat %d B", n, br.memBytes(), fr.memBytes())
		}
	}
}

// checkRunAgainstFlat builds a block run and a flat run over the same sorted
// keys and compares every run primitive between them, returning the block run.
func checkRunAgainstFlat(t *testing.T, rng *rand.Rand, keys []rdf.EncodedTriple) *blockRun {
	t.Helper()
	n := len(keys)
	br := buildRun(blockCodec{}, keys).(*blockRun)
	fr := buildRun(flatCodec{}, keys)
	if br.size() != n || fr.size() != n {
		t.Fatalf("n=%d: sizes %d/%d", n, br.size(), fr.size())
	}
	for pos := 0; pos < n; pos++ {
		if br.keyAt(pos) != fr.keyAt(pos) {
			t.Fatalf("n=%d: keyAt(%d) = %v, want %v", n, pos, br.keyAt(pos), fr.keyAt(pos))
		}
	}
	for trial := 0; trial < 300; trial++ {
		var probe rdf.EncodedTriple
		switch {
		case n > 0 && trial%2 == 0:
			probe = keys[rng.Intn(n)] // existing key
		case n > 0 && trial%4 == 1:
			// A near miss: an existing key with one component nudged.
			probe = keys[rng.Intn(n)]
			probe[rng.Intn(3)] += rdf.ID(rng.Intn(3)) - 1
		default:
			probe = rdf.EncodedTriple{
				rdf.ID(rng.Intn(n + 2)), rdf.ID(rng.Intn(20)), rdf.ID(rng.Intn(n + 2))}
		}
		if got, want := br.contains(probe), fr.contains(probe); got != want {
			t.Fatalf("n=%d: contains(%v) = %v, want %v", n, probe, got, want)
		}
		for depth := 0; depth <= 3; depth++ {
			for _, upper := range []bool{false, true} {
				from := 0
				if n > 0 && rng.Intn(3) == 0 {
					from = rng.Intn(n)
				}
				got := br.search(from, probe, depth, upper)
				want := fr.search(from, probe, depth, upper)
				if got != want {
					t.Fatalf("n=%d: search(%d, %v, %d, %v) = %d, want %d",
						n, from, probe, depth, upper, got, want)
				}
			}
			wantLo := fr.search(0, probe, depth, false)
			wantHi := fr.search(wantLo, probe, depth, true)
			gotLo, gotHi := br.searchRange(probe, depth)
			if gotLo != wantLo || gotHi != wantHi {
				t.Fatalf("n=%d: searchRange(%v, %d) = [%d,%d), want [%d,%d)",
					n, probe, depth, gotLo, gotHi, wantLo, wantHi)
			}
		}
	}
	// fill must reproduce the key sequence from any start position, and stop
	// at hi and at the end of lo's block.
	var a spanArena
	for lo := 0; lo < n; lo += 1 + rng.Intn(blockSize/2+1) {
		hi := lo + 1 + rng.Intn(n-lo)
		br.fill(&a, lo, hi)
		if a.idx != 0 || a.n < 1 || lo+a.n > hi || a.n > blockSize {
			t.Fatalf("n=%d: fill(%d, %d) window [%d, %d)", n, lo, hi, a.idx, a.n)
		}
		for i := a.idx; i < a.n; i++ {
			if a.key(i) != keys[lo+i] {
				t.Fatalf("n=%d: fill(%d) wrong at offset %d", n, lo, i)
			}
		}
	}
	for pos := 0; pos <= n; pos++ {
		ap := br.alignSplit(pos)
		if ap > pos || ap%blockSize != 0 && ap != n {
			t.Fatalf("n=%d: alignSplit(%d) = %d", n, pos, ap)
		}
	}
	return br
}

// TestPackedWidthEdges pins the frame-of-reference widths at their extremes —
// a constant column (width 0), IDs spanning the whole uint32 range (width
// 32), a one-key block and a one-key final block — and checks every run
// primitive against the flat oracle there.
func TestPackedWidthEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const top = math.MaxUint32
	constant := make([]rdf.EncodedTriple, 0, 2*blockSize+5)
	for i := 0; i < cap(constant); i++ {
		constant = append(constant, rdf.EncodedTriple{rdf.ID(10 + i/3), 7, rdf.ID(1 + i%3)})
	}
	wide := make([]rdf.EncodedTriple, 0, blockSize+300)
	for i := 0; i < cap(wide); i++ {
		c2 := rdf.ID(1)
		if i%2 == 1 {
			c2 = top - rdf.ID(i)
		}
		wide = append(wide, rdf.EncodedTriple{rdf.ID(top - cap(wide) + i), rdf.ID(1 + rng.Intn(top-1)), c2})
	}
	oneKey := []rdf.EncodedTriple{{top, top, top}}
	tail := sortedRandomKeys(rng, blockSize+1)
	for _, tc := range []struct {
		name  string
		keys  []rdf.EncodedTriple
		check func(t *testing.T, br *blockRun)
	}{
		{"constant", constant, func(t *testing.T, br *blockRun) {
			for bi, m := range br.meta {
				if m.width[1] != 0 {
					t.Fatalf("block %d: constant column has width %d", bi, m.width[1])
				}
			}
		}},
		{"wide", wide, func(t *testing.T, br *blockRun) {
			if m := br.meta[0]; m.width[1] != 32 && m.width[2] != 32 {
				t.Fatalf("full-range columns packed at widths %v", m.width)
			}
		}},
		{"one-key", oneKey, func(t *testing.T, br *blockRun) {
			if m := br.meta[0]; m.width != [3]uint8{} || m.plen != 0 {
				t.Fatalf("one-key block has widths %v, plen %d", m.width, m.plen)
			}
		}},
		{"partial-tail", tail, func(t *testing.T, br *blockRun) {
			if m := br.meta[len(br.meta)-1]; m.count != 1 || m.plen != 0 {
				t.Fatalf("final block holds %d keys in %d bytes", m.count, m.plen)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			br := checkRunAgainstFlat(t, rng, tc.keys)
			for bi := range br.meta {
				if err := checkPackedMeta(&br.meta[bi]); err != nil {
					t.Fatalf("block %d: builder output fails the directory check: %v", bi, err)
				}
			}
			tc.check(t, br)
		})
	}
}

// TestPackedReadsAllocFree pins that in-place searches and point reads
// allocate nothing: no decode scratch, pooled or otherwise.
func TestPackedReadsAllocFree(t *testing.T) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(3)), 4*blockSize)
	br := buildRun(blockCodec{}, keys).(*blockRun)
	probe := keys[len(keys)/2+5]
	for name, f := range map[string]func(){
		"searchRange": func() { br.searchRange(probe, 2) },
		"contains":    func() { br.contains(probe) },
		"keyAt":       func() { br.keyAt(len(keys)/2 + 5) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call", name, n)
		}
	}
}

// TestFillWindowOnly pins that a fill unpacks only the requested window: a
// 2-key probe range yields a 2-key span, not the rest of its block.
func TestFillWindowOnly(t *testing.T) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(8)), 2*blockSize)
	br := buildRun(blockCodec{}, keys).(*blockRun)
	lo := blockSize + 100
	var a spanArena
	br.fill(&a, lo, lo+2)
	if a.n != 2 || a.idx != 0 {
		t.Fatalf("2-key fill produced window [%d, %d)", a.idx, a.n)
	}
	if a.key(0) != keys[lo] || a.key(1) != keys[lo+1] {
		t.Fatalf("2-key fill produced %v %v, want %v %v", a.key(0), a.key(1), keys[lo], keys[lo+1])
	}
}

// TestBlockMemBytes pins the per-block accounting to the fence entry's real
// size plus its max0 mirror slot.
func TestBlockMemBytes(t *testing.T) {
	br := buildRun(blockCodec{}, sortedRandomKeys(rand.New(rand.NewSource(4)), 3*blockSize)).(*blockRun)
	perBlock := int64(unsafe.Sizeof(blockMeta{})) + 4
	if want := int64(len(br.meta))*perBlock + int64(len(br.data)); br.memBytes() != want {
		t.Fatalf("memBytes = %d, want %d", br.memBytes(), want)
	}
}

// blockSnapshotBytes serializes a block-codec graph of n base triples with a
// live overlay, so the byte stream exercises every v2 section. Sizes below
// blockSize keep the exhaustive sweeps fast; multi-block layouts are covered
// by the strided pass and the cross-codec round-trip tests.
func blockSnapshotBytes(t testing.TB, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	g := NewGraph()
	keys := sortedRandomKeys(rng, n)
	for i := range keys {
		g.MustAdd(tr(
			"s"+itoa(int(keys[i][0])), "p"+itoa(int(keys[i][1])), "o"+itoa(int(keys[i][2]))))
	}
	for i := 0; i < len(keys)/5; i++ {
		g.Remove(tr("s"+itoa(int(keys[i*3][0])), "p"+itoa(int(keys[i*3][1])), "o"+itoa(int(keys[i*3][2]))))
		g.MustAdd(tr("extra"+itoa(i), "pextra", "oextra"))
	}
	var buf bytes.Buffer
	if err := g.saveV2(&buf); err != nil {
		t.Fatal(err)
	}
	if string(buf.Bytes()[:8]) != snapshotMagicV2 {
		t.Fatalf("expected a v2 snapshot, got magic %q", buf.Bytes()[:8])
	}
	return buf.Bytes()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestBlockLoadTruncationEveryPrefix feeds Load every prefix of a valid v2
// snapshot: all but the full input must return an error — never panic, never
// a silently short graph.
func TestBlockLoadTruncationEveryPrefix(t *testing.T) {
	full := blockSnapshotBytes(t, 120)
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
}

// TestBlockLoadTruncationMultiBlock repeats the truncation check at a stride
// over a snapshot whose runs span multiple blocks, so cuts land inside every
// structural region of a multi-block run section too.
func TestBlockLoadTruncationMultiBlock(t *testing.T) {
	full := blockSnapshotBytes(t, 3*blockSize/2)
	for cut := 0; cut < len(full); cut += 23 {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
	if _, err := Load(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
}

// TestBlockLoadBitFlips flips bits across a v2 snapshot: every outcome must
// be an error or a fully consistent graph, never a panic and never decoded
// garbage — scans, Len, and the per-component statistics must all agree.
func TestBlockLoadBitFlips(t *testing.T) {
	full := blockSnapshotBytes(t, 120)
	step := 1
	if testing.Short() {
		step = 7
	}
	for off := 0; off < len(full); off += step {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), full...)
			mut[off] ^= bit
			g, err := Load(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			n := 0
			it := g.Scan(rdf.NoID, rdf.NoID, rdf.NoID)
			for it.Next() {
				n++
			}
			if n != g.Len() {
				t.Fatalf("flip at %d/%#x: Len()=%d but scan found %d", off, bit, g.Len(), n)
			}
		}
	}
}

// FuzzBlockDecode hammers the packed directory check and the in-place
// readers behind it with arbitrary counts, widths, payload lengths, bases and
// payload bytes: every input must end in a clean checkPackedMeta error or in
// reads whose values all sit inside their column's frame — never a panic,
// never an out-of-bounds read — and the in-place reads must agree with fill.
func FuzzBlockDecode(f *testing.F) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(5)), 600)
	valid := buildRun(blockCodec{}, keys).(*blockRun)
	m := valid.meta[0]
	f.Add(uint16(m.count), m.width[0], m.width[1], m.width[2], m.plen,
		uint32(m.base[0]), uint32(m.base[1]), uint32(m.base[2]), valid.data)
	f.Add(uint16(1), uint8(0), uint8(0), uint8(0), uint32(0), uint32(1), uint32(1), uint32(1), make([]byte, packSlack))
	f.Add(uint16(3), uint8(32), uint8(32), uint8(1), uint32(25), uint32(7), uint32(0), uint32(math.MaxUint32), make([]byte, 25+packSlack))
	f.Fuzz(func(t *testing.T, count uint16, w0, w1, w2 uint8, plen uint32, b0, b1, b2 uint32, payload []byte) {
		m := blockMeta{
			plen:  plen,
			count: uint32(count),
			width: [3]uint8{w0, w1, w2},
			base:  rdf.EncodedTriple{rdf.ID(b0), rdf.ID(b1), rdf.ID(b2)},
		}
		m.min, m.max = m.base, m.base
		if checkPackedMeta(&m) != nil || int(m.plen)+packSlack > len(payload) {
			return // rejected by the directory, or by the caller's extent check
		}
		r := &blockRun{meta: []blockMeta{m}, data: payload, n: int(count)}
		var a spanArena
		r.fill(&a, 0, r.n)
		if a.n != r.n {
			t.Fatalf("fill of a %d-key block unpacked %d keys", r.n, a.n)
		}
		for i := 0; i < a.n; i++ {
			k := a.key(i)
			for c := range m.width {
				if uint64(k[c]-m.base[c]) >= uint64(1)<<m.width[c] {
					t.Fatalf("key %d column %d value %d outside its %d-bit frame", i, c, k[c], m.width[c])
				}
				if col := r.column(0, c); col.at(i) != k[c] {
					t.Fatalf("key %d column %d: in-place read %d, fill %d", i, c, col.at(i), k[c])
				}
			}
		}
		// Searches over garbage order must stay in bounds too.
		for _, probe := range []rdf.EncodedTriple{a.key(0), a.key(a.n - 1), m.base} {
			for depth := 1; depth <= 3; depth++ {
				if lo, hi := r.blockRange(0, probe, depth); lo < 0 || hi < lo || hi > r.n {
					t.Fatalf("blockRange(%v, %d) = [%d, %d) outside [0, %d)", probe, depth, lo, hi, r.n)
				}
			}
		}
	})
}

// FuzzSnapshotLoadV2 mirrors FuzzSnapshotLoad for the v2 block format: every
// mutated input either loads into a consistent graph or errors — no panics,
// no runaway allocations.
func FuzzSnapshotLoadV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagicV2))
	f.Add(blockSnapshotBytes(f, 120))
	var empty bytes.Buffer
	if err := NewGraph().saveV2(&empty); err != nil {
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

// TestLoadHugeBlockCounts feeds v2 headers whose counts demand absurd
// allocations; they must fail on the reads, not by exhausting memory.
func TestLoadHugeBlockCounts(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	uv := func(b *bytes.Buffer, v uint64) { b.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(snapshotMagicV2)
		b.WriteByte(1)
		uv(&b, blockSize)
		uv(&b, 1)                        // one term
		b.Write([]byte{0, 1, 'x', 0, 0}) // IRI "x"
		uv(&b, 0)                        // no overlay adds
		uv(&b, 0)                        // no overlay dels
		return &b
	}
	// Huge key count for the SPO run.
	b := header()
	uv(b, 1<<50)
	uv(b, 1)
	if _, err := Load(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("huge key count accepted")
	}
	// Huge per-block count.
	b = header()
	uv(b, 1<<20)
	uv(b, 1)
	uv(b, 1<<32) // block count field
	if _, err := Load(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("huge block count accepted")
	}
	// Huge payload length.
	b = header()
	uv(b, 2)
	uv(b, 1)
	uv(b, 2) // two keys in the block
	uv(b, 1) // min
	uv(b, 1)
	uv(b, 1)
	uv(b, 2) // max
	uv(b, 2)
	uv(b, 2)
	uv(b, 1<<40) // payload length
	if _, err := Load(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("huge payload length accepted")
	}
}

// TestIteratorRemainingLazyDeletions is the regression test for the eager
// Remaining accounting: tombstones outside the iterator's base range must
// not be subtracted. The old formula reported base+extra-len(dels)
// unconditionally, under-counting whenever a partition's tombstone slice
// over-covers its key range.
func TestIteratorRemainingLazyDeletions(t *testing.T) {
	keys := sortedRandomKeys(rand.New(rand.NewSource(17)), 4*blockSize)
	for _, codec := range []runCodec{flatCodec{}, blockCodec{}} {
		r := buildRun(codec, keys)
		// An iterator restricted to the middle of the run whose tombstone
		// slice also names keys before, inside, and after its range.
		lo, hi := blockSize, 3*blockSize
		dels := []rdf.EncodedTriple{
			keys[0], keys[5], // before the range: must not count
			keys[lo+10], keys[lo+20], keys[hi-1], // inside: must count
			keys[hi], keys[len(keys)-1], // after the range: must not count
		}
		it := Iterator{kind: permSPO, base: r, lo: lo, hi: hi, dels: dels}
		want := (hi - lo) - 3
		if got := it.Remaining(); got != want {
			t.Fatalf("%s: Remaining = %d, want %d", codec.name(), got, want)
		}
		// The count must stay exact as iteration consumes the range.
		n := 0
		for it.Next() {
			n++
			if got := it.Remaining(); got != want-n {
				t.Fatalf("%s: after %d yields Remaining = %d, want %d", codec.name(), n, got, want-n)
			}
		}
		if n != want {
			t.Fatalf("%s: iterator yielded %d, want %d", codec.name(), n, want)
		}
		// With no base left, pending tombstones cancel nothing.
		empty := Iterator{kind: permSPO, base: r, lo: hi, hi: hi,
			extra: []rdf.EncodedTriple{{1, 1, 1}}, dels: dels}
		if got := empty.Remaining(); got != 1 {
			t.Fatalf("%s: exhausted-base Remaining = %d, want 1", codec.name(), got)
		}
	}
}
