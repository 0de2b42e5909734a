package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"sofos/internal/rdf"
)

// Block-compressed run layout.
//
// A blockRun chops the sorted key sequence into fixed-size blocks of up to
// blockSize keys. Each block is bit-packed frame-of-reference: every column c
// stores all count values as fixed-width offsets from the column's minimum,
// base[c], in width[c] = bits.Len32(max−base) bits each:
//
//	payload := c0-values c1-values c2-values   (count values each, no padding
//	                                            between columns)
//	value i of column c sits at bit  count·(width[0]+…+width[c−1]) + i·width[c]
//	plen = ⌈count·(width[0]+width[1]+width[2]) / 8⌉
//
// Bits are little-endian: payload bit j is bit j&7 of byte j>>3. A constant
// column has width 0 and occupies no payload bits. base and width live in
// the block's fence entry (blockMeta) next to its first and last key, so a
// payload's length follows from the directory alone (see checkPackedMeta).
//
// Fixed widths make every key an O(1) shift-and-mask read: searches
// binary-search the packed columns in place — c0, then c1 inside the c0 range,
// then c2 — and fills unpack only the window they are asked for. The fences
// double as a pruning index: searches binary-search the fence array and read
// at most the boundary blocks; estimates count interior blocks by their
// fence metadata alone.

// blockSize is the maximum number of keys encoded per block. 1024 keys keep
// an unpacked block (3 SoA columns, 12 KiB) inside L1/L2 while amortizing the
// per-block fence.
const blockSize = 1024

// maxBlockCount bounds the per-block key count accepted from snapshots, so a
// corrupt count cannot demand an unbounded arena allocation.
const maxBlockCount = 1 << 16

// packSlack is how many readable bytes every packed payload is followed by:
// builders end the run's data with them and paged snapshots reserve them at
// each page's tail. A value starts inside its payload, so its one 64-bit
// load (see column.at) never runs off the data.
const packSlack = 8

// blockMeta is one block's fence entry: where its payload lives, how many
// keys it holds, which global position it starts at, its first/last key, and
// each column's frame of reference (base, width). Payload extent is explicit
// (off, plen) rather than derived from the next block's offset, because paged
// snapshots leave alignment padding between payloads.
type blockMeta struct {
	off   uint32   // payload start offset in blockRun.data
	plen  uint32   // payload length in bytes
	count uint32   // keys in the block (1..blockSize; snapshots up to maxBlockCount)
	width [3]uint8 // bits per stored value, per column (0..32)
	start int      // global position of the block's first key
	min   rdf.EncodedTriple
	max   rdf.EncodedTriple
	base  rdf.EncodedTriple // per-column minimum every value is stored against
}

// packedLen is the payload length of a block of count keys with the given
// column widths.
func packedLen(count int, width [3]uint8) int {
	return (count*(int(width[0])+int(width[1])+int(width[2])) + 7) / 8
}

// checkPackedMeta validates a block's packed shape from its fence entry
// alone, before any payload byte is read: the count and widths must be in
// range, plen must be exactly what they imply, and both fence keys must be
// representable in the block's frames (with base[0] = min[0], since the
// leading column is sorted). Together with the caller's extent check — the
// payload plus packSlack bytes must lie inside the data — it guarantees
// every in-block read stays inside the data.
func checkPackedMeta(m *blockMeta) error {
	if m.count == 0 || m.count > maxBlockCount {
		return fmt.Errorf("invalid count %d", m.count)
	}
	for c, w := range m.width {
		if w > 32 {
			return fmt.Errorf("column %d width %d exceeds 32 bits", c, w)
		}
		mask := uint64(1)<<w - 1
		for _, k := range [2]rdf.EncodedTriple{m.min, m.max} {
			if k[c] < m.base[c] || uint64(k[c]-m.base[c]) > mask {
				return fmt.Errorf("column %d fence outside its %d-bit frame", c, w)
			}
		}
	}
	if m.base[0] != m.min[0] {
		return fmt.Errorf("leading column base %d differs from the fence %d", m.base[0], m.min[0])
	}
	if want := packedLen(int(m.count), m.width); int(m.plen) != want {
		return fmt.Errorf("payload length %d, packed shape needs %d", m.plen, want)
	}
	return nil
}

// blockRun is the block-compressed run representation.
type blockRun struct {
	meta []blockMeta
	// max0 mirrors meta[i].max[0] as a flat array: fence searches narrow by
	// the leading component through this cache-dense slice before touching
	// the 64-byte-stride meta entries.
	max0 []rdf.ID
	data []byte
	n    int // total keys

	// crcs, when non-nil, holds each block's payload CRC32 from a paged
	// snapshot directory, checked lazily on a block's first payload read;
	// verified is the matching atomic "already checked" bitset. Lazy checking
	// is what lets an mmap-backed load finish without touching payload pages
	// — the first read of a corrupted block then fails loudly (see verify).
	crcs     []uint32
	verified []uint32

	// mapped marks data as a view into an mmap'd file region rather than the
	// Go heap, so memory accounting reports it as mapped, not resident.
	mapped bool

	// psz is the page size the run's payload region is packed with when it
	// was loaded from a paged (v3) snapshot, 0 otherwise. alignSplit uses it
	// to round partition cuts down to page-run boundaries, so parallel scan
	// workers touch disjoint pages.
	psz int
}

// fenceInit (re)builds the max0 fence mirror from meta; called after a run is
// assembled by the builder, a clone, or a snapshot load.
func (r *blockRun) fenceInit() {
	r.max0 = make([]rdf.ID, len(r.meta))
	for i := range r.meta {
		r.max0[i] = r.meta[i].max[0]
	}
}

// blockCodec builds block-compressed runs.
type blockCodec struct{}

func (blockCodec) name() string { return "block" }

func (blockCodec) newBuilder(sizeHint int) runBuilder {
	b := &blockBuilder{}
	if sizeHint > 0 {
		b.r.meta = make([]blockMeta, 0, (sizeHint+blockSize-1)/blockSize)
		// Size the payload buffer assuming ~4 bytes per key; it grows if the
		// data is less compressible.
		b.r.data = make([]byte, 0, sizeHint*4)
	}
	return b
}

// blockBuilder accumulates sorted keys and flushes a block every blockSize.
type blockBuilder struct {
	r    blockRun
	pend []rdf.EncodedTriple
}

func (b *blockBuilder) add(k rdf.EncodedTriple) {
	if b.pend == nil {
		b.pend = make([]rdf.EncodedTriple, 0, blockSize)
	}
	b.pend = append(b.pend, k)
	if len(b.pend) == blockSize {
		b.flush()
	}
}

func (b *blockBuilder) flush() {
	if len(b.pend) == 0 {
		return
	}
	keys := b.pend
	m := blockMeta{
		off:   uint32(len(b.r.data)),
		count: uint32(len(keys)),
		start: b.r.n,
		min:   keys[0],
		max:   keys[len(keys)-1],
		base:  keys[0],
	}
	hi := keys[0]
	for _, k := range keys[1:] {
		for c := 1; c < 3; c++ {
			m.base[c] = min(m.base[c], k[c])
			hi[c] = max(hi[c], k[c])
		}
	}
	hi[0] = m.max[0]
	for c := range m.width {
		m.width[c] = uint8(bits.Len32(uint32(hi[c] - m.base[c])))
	}
	b.r.data = appendPacked(b.r.data, keys, m.base, m.width)
	m.plen = uint32(len(b.r.data)) - m.off
	b.r.meta = append(b.r.meta, m)
	b.r.n += len(keys)
	b.pend = b.pend[:0]
}

func (b *blockBuilder) finish() run {
	b.flush()
	r := b.r
	b.r = blockRun{}
	if len(r.meta) > 0 {
		r.data = append(r.data, make([]byte, packSlack)...)
	}
	r.fenceInit()
	return &r
}

// appendPacked appends keys as one packed payload: each column in turn, every
// value as its offset from base in that column's width.
func appendPacked(dst []byte, keys []rdf.EncodedTriple, base rdf.EncodedTriple, width [3]uint8) []byte {
	var acc uint64 // pending bits, low bits first
	var nacc uint
	for c := range width {
		w := uint(width[c])
		for _, k := range keys {
			acc |= uint64(k[c]-base[c]) << nacc
			for nacc += w; nacc >= 8; nacc -= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
			}
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// column is a read cursor over one packed column of one block.
type column struct {
	data []byte // the run's whole payload region
	bit  uint64 // bit offset of value 0 in data
	w    uint64 // bits per value
	mask uint64 // 1<<w - 1
	base rdf.ID
}

// column returns a read cursor over column c of block bi. Callers must have
// verified the block (see verify).
func (r *blockRun) column(bi, c int) column {
	m := &r.meta[bi]
	bit := uint64(m.off) * 8
	for i := 0; i < c; i++ {
		bit += uint64(m.count) * uint64(m.width[i])
	}
	w := uint64(m.width[c])
	return column{data: r.data, bit: bit, w: w, mask: 1<<w - 1, base: m.base[c]}
}

// at returns the column's value i: one 64-bit load holds it whole, since it
// is at most 32 bits starting at most 7 bits into its first byte.
func (c *column) at(i int) rdf.ID {
	b := c.bit + uint64(i)*c.w
	return c.base + rdf.ID(binary.LittleEndian.Uint64(c.data[b>>3:])>>(b&7)&c.mask)
}

// unpack writes values [from, from+len(dst)) into dst. As in at, one 64-bit
// load holds four consecutive values of up to 14 bits, or two of up to 28:
// the loops take that many per load.
func (c *column) unpack(dst []rdf.ID, from int) {
	data, base, w, mask := c.data, c.base, c.w, c.mask
	b := c.bit + uint64(from)*w
	i, n := 0, len(dst)
	switch {
	case w <= 14:
		for ; i+4 <= n; i += 4 {
			x := binary.LittleEndian.Uint64(data[b>>3:]) >> (b & 7)
			d := dst[i : i+4 : i+4]
			d[0] = base + rdf.ID(x&mask)
			d[1] = base + rdf.ID(x>>w&mask)
			d[2] = base + rdf.ID(x>>(2*w)&mask)
			d[3] = base + rdf.ID(x>>(3*w)&mask)
			b += 4 * w
		}
	case w <= 28:
		for ; i+2 <= n; i += 2 {
			x := binary.LittleEndian.Uint64(data[b>>3:]) >> (b & 7)
			d := dst[i : i+2 : i+2]
			d[0] = base + rdf.ID(x&mask)
			d[1] = base + rdf.ID(x>>w&mask)
			b += 2 * w
		}
	}
	for ; i < n; i++ {
		dst[i] = base + rdf.ID(binary.LittleEndian.Uint64(data[b>>3:])>>(b&7)&mask)
		b += w
	}
}

// lower returns the first index in [lo, hi) whose value is ≥ v (hi if none);
// the values in [lo, hi) must be sorted.
func (c *column) lower(lo, hi int, v rdf.ID) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.at(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upper returns the first index in [lo, hi) whose value is > v (hi if none).
// It gallops from lo before bisecting, because the matching ranges probes
// ask for are usually a few keys long.
func (c *column) upper(lo, hi int, v rdf.ID) int {
	end := lo
	for step := 1; end < hi && c.at(end) <= v; step <<= 1 {
		lo, end = end+1, end+step
	}
	hi = min(hi, end)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.at(mid) <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// payloadEnd returns the end offset of block bi's payload.
func (r *blockRun) payloadEnd(bi int) int {
	m := &r.meta[bi]
	return int(m.off) + int(m.plen)
}

// checkCRC verifies block bi's payload against its snapshot CRC the first
// time the block is read. The bitset is updated with a CAS loop so
// concurrent readers verify at most a handful of times and never block.
func (r *blockRun) checkCRC(bi int) error {
	if r.crcs == nil {
		return nil
	}
	w := &r.verified[bi>>5]
	bit := uint32(1) << (bi & 31)
	if atomic.LoadUint32(w)&bit != 0 {
		return nil
	}
	m := &r.meta[bi]
	if crc32.ChecksumIEEE(r.data[m.off:int(m.off)+int(m.plen)]) != r.crcs[bi] {
		return fmt.Errorf("block %d: payload CRC mismatch", bi)
	}
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 || atomic.CompareAndSwapUint32(w, old, old|bit) {
			return nil
		}
	}
}

// verify is checkCRC for the read paths. Runs are trusted once loaded — heap
// loads check every CRC up front — so a mismatch here is a lazily verified
// (mmap) block whose file bytes are corrupt, and it is a tagged panic rather
// than a recoverable error.
func (r *blockRun) verify(bi int) {
	if err := r.checkCRC(bi); err != nil {
		panic("store: corrupt block run: " + err.Error())
	}
}

// blockRange returns the [lo, hi) in-block index range of block bi's keys
// matching the depth-prefix of key, binary-searching the packed columns in
// place: each column is sorted within the range where the preceding columns
// equal the key's prefix.
func (r *blockRun) blockRange(bi int, key rdf.EncodedTriple, depth int) (int, int) {
	r.verify(bi)
	lo, hi := 0, int(r.meta[bi].count)
	for c := 0; c < depth; c++ {
		col := r.column(bi, c)
		l := col.lower(lo, hi, key[c])
		lo, hi = l, col.upper(l, hi, key[c])
	}
	return lo, hi
}

// blockOf returns the index of the block containing global position pos.
func (r *blockRun) blockOf(pos int) int {
	lo, hi := 0, len(r.meta)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if r.meta[mid].start <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (r *blockRun) size() int { return r.n }

func (r *blockRun) memBytes() int64 {
	// Each block costs its fence entry plus its max0 mirror slot, and CRC
	// side arrays when loaded lazily. Mapped payloads live in the OS page
	// cache, not the heap, so they are excluded here and reported through
	// mappedBytes instead.
	perBlock := int64(unsafe.Sizeof(blockMeta{}) + unsafe.Sizeof(rdf.ID(0)))
	b := int64(len(r.meta))*perBlock + int64(len(r.crcs))*4 + int64(len(r.verified))*4
	if !r.mapped {
		b += int64(len(r.data))
	}
	return b
}

// mappedBytes returns the bytes of the run backed by an mmap'd file region.
func (r *blockRun) mappedBytes() int64 {
	if r.mapped {
		return int64(len(r.data))
	}
	return 0
}

func (r *blockRun) numBlocks() int { return len(r.meta) }

// verifiedBlocks counts blocks whose payload CRC has been checked. Runs
// without lazy snapshot CRCs are trusted in-process memory, so every block
// counts; mmap-backed runs popcount the lazy-verification bitset.
func (r *blockRun) verifiedBlocks() int {
	if r.crcs == nil {
		return len(r.meta)
	}
	n := 0
	for i := range r.verified {
		n += bits.OnesCount32(atomic.LoadUint32(&r.verified[i]))
	}
	return n
}

// passes reports whether a key satisfies the search bound: prefix > key for
// upper bounds, prefix ≥ key for lower bounds.
func passes(k, key rdf.EncodedTriple, depth int, upper bool) bool {
	c := cmpPrefix(k, key, depth)
	if upper {
		return c > 0
	}
	return c >= 0
}

// lowerID returns the first index in the sorted slice with s[i] ≥ v.
func lowerID(s []rdf.ID, v rdf.ID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperID returns the first index in the sorted slice with s[i] > v.
func upperID(s []rdf.ID, v rdf.ID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search is one bound of searchRange, clamped to from.
func (r *blockRun) search(from int, key rdf.EncodedTriple, depth int, upper bool) int {
	lo, hi := r.searchRange(key, depth)
	if upper {
		lo = hi
	}
	return max(lo, from)
}

// searchRange returns the [lower, upper) position range of keys matching the
// depth-prefix of key — the fused form of a lower- and upper-bound search
// pair. It shares the fence narrowing between the bounds and, when both land
// in the same block (the common case for selective probes), the in-block
// column search too.
func (r *blockRun) searchRange(key rdf.EncodedTriple, depth int) (int, int) {
	if depth == 0 {
		return 0, r.n
	}
	if r.n == 0 {
		return r.n, r.n
	}
	k0 := key[0]
	e0 := lowerID(r.max0, k0)           // first block with max0 ≥ key[0]
	e1 := e0 + upperID(r.max0[e0:], k0) // first block with max0 > key[0]
	// Lower-bound block: the first block whose max ≥ prefix. Only the
	// max0 == key[0] blocks [e0, e1) need comparison past the leading
	// component; block e1, if it exists, passes outright.
	bLo := e0
	if depth > 1 {
		lo2, h := e0, e1
		if h < len(r.meta) {
			h++
		}
		for lo2 < h {
			mid := int(uint(lo2+h) >> 1)
			if !passes(r.meta[mid].max, key, depth, false) {
				lo2 = mid + 1
			} else {
				h = mid
			}
		}
		bLo = lo2
	}
	if bLo == len(r.meta) {
		return r.n, r.n
	}
	m := &r.meta[bLo]
	if passes(m.min, key, depth, true) {
		// Even the block's first key is past the prefix: empty range, and
		// every earlier key fails the lower bound, so both bounds sit here.
		return m.start, m.start
	}
	// The lower bound is in this block; the upper bound may be too.
	l, h := r.blockRange(bLo, key, depth)
	if h < int(m.count) {
		return m.start + l, m.start + h
	}
	return m.start + l, r.searchUpperFrom(bLo+1, e1, key, depth)
}

// searchUpperFrom finds the first position whose depth-prefix is > key's,
// considering only blocks from b on; e1 is the first block with
// max0 > key[0], which passes outright if it exists.
func (r *blockRun) searchUpperFrom(b, e1 int, key rdf.EncodedTriple, depth int) int {
	lo, h := b, e1
	if h < lo {
		h = lo
	}
	if h < len(r.meta) {
		h++
	}
	for lo < h {
		mid := int(uint(lo+h) >> 1)
		if !passes(r.meta[mid].max, key, depth, true) {
			lo = mid + 1
		} else {
			h = mid
		}
	}
	if lo == len(r.meta) {
		return r.n
	}
	m := &r.meta[lo]
	if !passes(m.min, key, depth, true) {
		_, h := r.blockRange(lo, key, depth)
		return m.start + h
	}
	return m.start
}

func (r *blockRun) contains(key rdf.EncodedTriple) bool {
	if r.n == 0 {
		return false
	}
	// Last block whose min key is ≤ key.
	lo, hi := 0, len(r.meta)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if cmpKeys(r.meta[mid].min, key) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	m := &r.meta[lo]
	switch {
	case cmpKeys(key, m.min) < 0 || cmpKeys(key, m.max) > 0:
		return false
	case key == m.min || key == m.max:
		return true
	}
	l, h := r.blockRange(lo, key, 3)
	return l < h
}

func (r *blockRun) keyAt(pos int) rdf.EncodedTriple {
	bi := r.blockOf(pos)
	m := &r.meta[bi]
	switch pos {
	case m.start:
		return m.min
	case m.start + int(m.count) - 1:
		return m.max
	}
	r.verify(bi)
	i := pos - m.start
	c0, c1, c2 := r.column(bi, 0), r.column(bi, 1), r.column(bi, 2)
	return rdf.EncodedTriple{c0.at(i), c1.at(i), c2.at(i)}
}

// fill unpacks only the window [lo, min(hi, end of lo's block)) into the
// arena: a selective probe reads the keys it matched, not the whole block.
func (r *blockRun) fill(a *spanArena, lo, hi int) {
	bi := r.blockOf(lo)
	m := &r.meta[bi]
	hi = min(hi, m.start+int(m.count))
	a.grow(hi - lo)
	r.verify(bi)
	from := lo - m.start
	c0, c1, c2 := r.column(bi, 0), r.column(bi, 1), r.column(bi, 2)
	c0.unpack(a.c0, from)
	c1.unpack(a.c1, from)
	c2.unpack(a.c2, from)
}

// alignSplit rounds a tentative partition cut down to a block boundary — and,
// for paged snapshots, further down to the first block of the page holding
// that block, so partitioned parallel scans hand each worker a disjoint set
// of pages (no two workers fault or prefetch the same page). Greedy page
// packing guarantees each page's first block starts at page offset 0, so the
// walk back is bounded by the blocks of one page.
func (r *blockRun) alignSplit(pos int) int {
	if pos >= r.n {
		return r.n
	}
	bi := r.blockOf(pos)
	if r.psz > 0 {
		for bi > 0 && int(r.meta[bi].off)%r.psz != 0 {
			bi--
		}
	}
	return r.meta[bi].start
}

func (r *blockRun) clone() run {
	// The copy is trusted in-process heap memory, so snapshot CRCs (verified
	// or not once the bytes are re-read here) are dropped rather than carried.
	c := &blockRun{n: r.n}
	c.meta = append([]blockMeta(nil), r.meta...)
	c.data = append([]byte(nil), r.data...)
	c.fenceInit()
	return c
}

// tripleHash mixes one triple into a 64-bit value; summed over a run it forms
// an order-independent set digest used to cross-check permutations.
func tripleHash(s, p, o rdf.ID) uint64 {
	x := uint64(s)<<40 ^ uint64(p)<<20 ^ uint64(o)
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
