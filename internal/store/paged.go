package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"sofos/internal/rdf"
)

// Paged (v3) snapshot layout. v3 is the on-disk format that *is* the runtime
// format: block payloads are packed whole into fixed-size pages, so a loaded
// graph serves scans straight out of the file image — read into the heap
// (StorageHeap) or mmap'd with the OS page cache as the buffer pool
// (StorageMmap). All integers are varints unless noted.
//
//	magic "SOFOSGR3" (8 bytes)
//	codec (1 byte: 2 = bit-packed blocks; 1 = legacy varint blocks)
//	blockSize
//	pageSize                       (power of two in [minPageSize, maxPageSize])
//	termCount + terms              (as v1/v2)
//	addCount,  per add: s, p, o    (delta-overlay inserts, SPO-sorted)
//	delCount,  per del: s, p, o    (delta-overlay tombstones, SPO-sorted)
//	3 × count section: n, per entry: id, count   (countS, countP, countO —
//	                                persisted so load never scans payloads)
//	per permutation (SPO, POS, OSP):
//	  keyCount, blockCount, pageCount
//	  per block: count, min (3), max (3),
//	             base (3), width (3)          (codec 2 only: the packed frames)
//	             payloadLen, pageIdx, pageOff, crc32(payload) (4 bytes LE)
//	crc32 of everything above (4 bytes LE — the directory checksum)
//	zero padding to the next pageSize boundary
//	per permutation: pageCount pages of pageSize bytes, block payloads packed
//	                 greedily in block order, zero fill at each page tail
//	                 (codec 2 payloads never enter a page's last packSlack
//	                 bytes, so every in-place 64-bit read stays in the page)
//	(exact EOF — any truncation or growth fails the size check)
//
// The packed layout took a new codec byte rather than a new magic: the file
// structure is unchanged, only the payload encoding and the two per-block
// frame fields differ. Save writes codec 2. Codec 1 files (written before bit
// packing) still load, through the one load-time transcoder (legacy.go) into
// heap runs.
//
// Loading validates the header and directory exhaustively (the directory
// checksum catches every corrupted header byte, and checkPackedMeta proves
// each payload length from count and widths alone) but does not touch payload
// pages: per-block CRCs verify lazily on a block's first read under mmap,
// eagerly under heap storage (where the bytes were just read anyway). That is
// what makes recovery O(open + WAL suffix) — see core.Restore.
const (
	snapshotCodecVarint = 1 // legacy delta/varint block payloads (legacy.go)
	snapshotCodecPacked = 2 // bit-packed frame-of-reference payloads (block.go)
)

const (
	defaultPageSize = 64 << 10
	minPageSize     = 512
	maxPageSize     = 16 << 20
)

// SavePaged writes the graph as a paged (v3) snapshot with an explicit page
// size; Save uses defaultPageSize. Small page sizes keep exhaustive
// corruption sweeps fast in tests; every page must still fit the largest
// block payload.
func (g *Graph) SavePaged(w io.Writer, pageSize int) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.savePagedLocked(w, pageSize)
}

func (g *Graph) savePagedLocked(out io.Writer, pageSize int) error {
	if pageSize < minPageSize || pageSize > maxPageSize || pageSize&(pageSize-1) != 0 {
		return fmt.Errorf("store: invalid page size %d", pageSize)
	}
	brs, err := g.blockRunsLocked()
	if err != nil {
		return err
	}
	// Greedy page assignment: blocks in order, a new page whenever the next
	// payload would cross into the page's packSlack tail reserve.
	// Deterministic from the payload lengths, so the loader can (and does)
	// verify it as a canonical form.
	room := pageSize - packSlack
	type runLayout struct {
		pageIdx []uint32
		pageOff []uint32
		pages   int
	}
	var layouts [numPerms]runLayout
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		lay.pageIdx = make([]uint32, len(br.meta))
		lay.pageOff = make([]uint32, len(br.meta))
		po := 0
		for bi := range br.meta {
			plen := int(br.meta[bi].plen)
			if plen > room {
				return fmt.Errorf("store: block payload of %d bytes exceeds page size %d", plen, pageSize)
			}
			if po+plen > room {
				lay.pages++
				po = 0
			}
			lay.pageIdx[bi] = uint32(lay.pages)
			lay.pageOff[bi] = uint32(po)
			po += plen
		}
		if len(br.meta) > 0 {
			lay.pages++
		}
	}
	w := &snapshotWriter{bw: bufio.NewWriterSize(out, 1<<16), track: true}
	if err := w.writeString(snapshotMagicV3); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if err := w.writeByte(snapshotCodecPacked); err != nil {
		return fmt.Errorf("store: writing codec: %w", err)
	}
	if err := w.uvarint(blockSize); err != nil {
		return fmt.Errorf("store: writing block size: %w", err)
	}
	if err := w.uvarint(uint64(pageSize)); err != nil {
		return fmt.Errorf("store: writing page size: %w", err)
	}
	if err := g.writeTerms(w); err != nil {
		return err
	}
	if err := g.writeOverlays(w); err != nil {
		return err
	}
	for _, m := range []map[rdf.ID]int{g.countS, g.countP, g.countO} {
		if err := writeIDCounts(w, m); err != nil {
			return err
		}
	}
	var crcb [4]byte
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		if err := w.uvarint(uint64(br.n)); err != nil {
			return fmt.Errorf("store: writing run size: %w", err)
		}
		if err := w.uvarint(uint64(len(br.meta))); err != nil {
			return fmt.Errorf("store: writing block count: %w", err)
		}
		if err := w.uvarint(uint64(lay.pages)); err != nil {
			return fmt.Errorf("store: writing page count: %w", err)
		}
		for bi := range br.meta {
			m := &br.meta[bi]
			if err := w.uvarint(uint64(m.count)); err != nil {
				return fmt.Errorf("store: writing block header: %w", err)
			}
			for _, t := range []rdf.EncodedTriple{m.min, m.max, m.base} {
				if err := w.key(t); err != nil {
					return fmt.Errorf("store: writing block fences: %w", err)
				}
			}
			for _, wd := range m.width {
				if err := w.uvarint(uint64(wd)); err != nil {
					return fmt.Errorf("store: writing block widths: %w", err)
				}
			}
			if err := w.uvarint(uint64(m.plen)); err != nil {
				return fmt.Errorf("store: writing block payload length: %w", err)
			}
			if err := w.uvarint(uint64(lay.pageIdx[bi])); err != nil {
				return fmt.Errorf("store: writing block page index: %w", err)
			}
			if err := w.uvarint(uint64(lay.pageOff[bi])); err != nil {
				return fmt.Errorf("store: writing block page offset: %w", err)
			}
			binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(br.data[m.off:br.payloadEnd(bi)]))
			if err := w.writeRaw(crcb[:]); err != nil {
				return fmt.Errorf("store: writing block checksum: %w", err)
			}
		}
	}
	binary.LittleEndian.PutUint32(crcb[:], w.crc)
	if err := w.writeRaw(crcb[:]); err != nil {
		return fmt.Errorf("store: writing directory checksum: %w", err)
	}
	if rem := int(w.off % int64(pageSize)); rem != 0 {
		if err := w.zeros(pageSize - rem); err != nil {
			return fmt.Errorf("store: writing page padding: %w", err)
		}
	}
	for k := permKind(0); k < numPerms; k++ {
		br, lay := brs[k], &layouts[k]
		filled := 0
		for bi := range br.meta {
			if bi > 0 && lay.pageIdx[bi] != lay.pageIdx[bi-1] {
				if err := w.zeros(pageSize - filled); err != nil {
					return fmt.Errorf("store: writing page fill: %w", err)
				}
				filled = 0
			}
			if err := w.writeRaw(br.data[br.meta[bi].off:br.payloadEnd(bi)]); err != nil {
				return fmt.Errorf("store: writing block payload: %w", err)
			}
			filled += int(br.meta[bi].plen)
		}
		if len(br.meta) > 0 {
			if err := w.zeros(pageSize - filled); err != nil {
				return fmt.Errorf("store: writing page fill: %w", err)
			}
		}
	}
	return w.bw.Flush()
}

var zeroChunk [4096]byte

// zeros writes n zero bytes.
func (w *snapshotWriter) zeros(n int) error {
	for n > 0 {
		c := n
		if c > len(zeroChunk) {
			c = len(zeroChunk)
		}
		if err := w.writeRaw(zeroChunk[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// writeIDCounts writes one per-component occurrence-count section in
// ascending ID order.
func writeIDCounts(w *snapshotWriter, m map[rdf.ID]int) error {
	ids := make([]rdf.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := w.uvarint(uint64(len(ids))); err != nil {
		return fmt.Errorf("store: writing count section: %w", err)
	}
	for _, id := range ids {
		if err := w.uvarint(uint64(id)); err != nil {
			return fmt.Errorf("store: writing count id: %w", err)
		}
		if err := w.uvarint(uint64(m[id])); err != nil {
			return fmt.Errorf("store: writing count value: %w", err)
		}
	}
	return nil
}

// readIDCounts reads one count section, validating strictly increasing IDs in
// dictionary range and positive counts, returning the map and the total.
func readIDCounts(r byteScanner, section string, maxID rdf.ID) (map[rdf.ID]int, int64, error) {
	cnt, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading %s count: %w", section, err)
	}
	if cnt > uint64(maxID) {
		return nil, 0, fmt.Errorf("store: %s section claims %d ids but the dictionary has %d terms", section, cnt, maxID)
	}
	m := make(map[rdf.ID]int, cnt)
	var prev uint64
	var total int64
	for i := uint64(0); i < cnt; i++ {
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading %s entry %d: %w", section, i, err)
		}
		if id == 0 || id > uint64(maxID) || id <= prev {
			return nil, 0, fmt.Errorf("store: %s entry %d has invalid id %d", section, i, id)
		}
		prev = id
		c, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading %s entry %d value: %w", section, i, err)
		}
		if c == 0 || c > 1<<40 {
			return nil, 0, fmt.Errorf("store: %s entry %d has invalid count %d", section, i, c)
		}
		m[rdf.ID(id)] = int(c)
		total += int64(c)
	}
	return m, total, nil
}

// readFenceKey reads one directory fence key, validating every component is a
// dictionary ID. v2 defers this to full decode validation (transcode); v3
// must check at the directory because payloads are not read at load.
func readFenceKey(r byteScanner, maxID rdf.ID) (rdf.EncodedTriple, error) {
	var t rdf.EncodedTriple
	for c := 0; c < 3; c++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return t, err
		}
		if v == 0 || v > uint64(maxID) {
			return t, fmt.Errorf("fence component id %d out of dictionary range", v)
		}
		t[c] = rdf.ID(v)
	}
	return t, nil
}

// readPagedRun reads one permutation's v3 directory into a blockRun whose
// data region is attached by the caller. packed selects the codec-2 directory
// (with per-block frames, each checked by checkPackedMeta); otherwise the
// blocks hold legacy varint payloads for transcode. It enforces the canonical
// greedy page packing, so every structurally distinct directory byte matters
// — any deviation is corrupt.
func readPagedRun(r byteScanner, pageSize int, maxID rdf.ID, packed bool) (*blockRun, int, error) {
	keyCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("reading key count: %w", err)
	}
	blockCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("reading block count: %w", err)
	}
	if keyCount > 1<<40 || blockCount > keyCount {
		return nil, 0, fmt.Errorf("implausible key/block counts %d/%d", keyCount, blockCount)
	}
	pageCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, fmt.Errorf("reading page count: %w", err)
	}
	if blockCount == 0 && pageCount != 0 || blockCount > 0 && (pageCount == 0 || pageCount > blockCount) {
		return nil, 0, fmt.Errorf("implausible page count %d for %d blocks", pageCount, blockCount)
	}
	metaCap := blockCount
	if metaCap > 1<<20 {
		metaCap = 1 << 20
	}
	// Packed pages keep a packSlack tail reserve that payloads never enter;
	// legacy varint pages fill to the end.
	room := uint64(pageSize)
	if packed {
		room -= packSlack
	}
	br := &blockRun{
		meta: make([]blockMeta, 0, metaCap),
		crcs: make([]uint32, 0, metaCap),
		n:    int(keyCount),
		psz:  pageSize,
	}
	start := 0
	var crcb [4]byte
	for bi := uint64(0); bi < blockCount; bi++ {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d count: %w", bi, err)
		}
		if count == 0 || count > maxBlockCount {
			return nil, 0, fmt.Errorf("block %d: invalid count %d", bi, count)
		}
		min, err := readFenceKey(r, maxID)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d min fence: %w", bi, err)
		}
		max, err := readFenceKey(r, maxID)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d max fence: %w", bi, err)
		}
		if count == 1 && min != max || count > 1 && cmpKeys(min, max) >= 0 {
			return nil, 0, fmt.Errorf("block %d: fences out of order", bi)
		}
		if bi > 0 && cmpKeys(br.meta[bi-1].max, min) >= 0 {
			return nil, 0, fmt.Errorf("block %d: fences regress across blocks", bi)
		}
		m := blockMeta{count: uint32(count), start: start, min: min, max: max}
		if packed {
			if m.base, err = readFenceKey(r, maxID); err != nil {
				return nil, 0, fmt.Errorf("reading block %d frame base: %w", bi, err)
			}
			for c := range m.width {
				wd, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, 0, fmt.Errorf("reading block %d frame width: %w", bi, err)
				}
				if wd > 32 {
					return nil, 0, fmt.Errorf("block %d: column %d width %d exceeds 32 bits", bi, c, wd)
				}
				m.width[c] = uint8(wd)
			}
		}
		plen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d payload length: %w", bi, err)
		}
		if plen > maxBlockCount*3*binary.MaxVarintLen32 || plen > room {
			return nil, 0, fmt.Errorf("block %d: payload length %d exceeds limit", bi, plen)
		}
		if count == 1 && plen != 0 {
			return nil, 0, fmt.Errorf("block %d: one-key block with a %d-byte payload", bi, plen)
		}
		m.plen = uint32(plen)
		if packed {
			if err := checkPackedMeta(&m); err != nil {
				return nil, 0, fmt.Errorf("block %d: %w", bi, err)
			}
		}
		pageIdx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d page index: %w", bi, err)
		}
		pageOff, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("reading block %d page offset: %w", bi, err)
		}
		if pageIdx >= pageCount || pageOff+plen > room {
			return nil, 0, fmt.Errorf("block %d: payload outside its page", bi)
		}
		// Canonical greedy packing: same page tightly after the previous
		// block, or the first slot of the next page when it would not fit.
		if bi == 0 {
			if pageIdx != 0 || pageOff != 0 {
				return nil, 0, fmt.Errorf("block 0: not at the first page slot")
			}
		} else {
			pm := &br.meta[bi-1]
			prevIdx := uint64(pm.off) / uint64(pageSize)
			prevEnd := uint64(pm.off)%uint64(pageSize) + uint64(pm.plen)
			switch pageIdx {
			case prevIdx:
				if pageOff != prevEnd {
					return nil, 0, fmt.Errorf("block %d: payload not packed tightly", bi)
				}
			case prevIdx + 1:
				if pageOff != 0 || prevEnd+plen <= room {
					return nil, 0, fmt.Errorf("block %d: page break without overflow", bi)
				}
			default:
				return nil, 0, fmt.Errorf("block %d: page index regresses or skips", bi)
			}
		}
		if _, err := io.ReadFull(r, crcb[:]); err != nil {
			return nil, 0, fmt.Errorf("reading block %d checksum: %w", bi, err)
		}
		off64 := int64(pageIdx)*int64(pageSize) + int64(pageOff)
		if off64+int64(plen) > math.MaxUint32 {
			return nil, 0, fmt.Errorf("block %d: run region exceeds addressable range", bi)
		}
		m.off = uint32(off64)
		br.meta = append(br.meta, m)
		br.crcs = append(br.crcs, binary.LittleEndian.Uint32(crcb[:]))
		start += int(count)
	}
	if start != int(keyCount) {
		return nil, 0, fmt.Errorf("blocks hold %d keys, header says %d", start, keyCount)
	}
	if blockCount > 0 {
		if last := uint64(br.meta[blockCount-1].off) / uint64(pageSize); last != pageCount-1 {
			return nil, 0, fmt.Errorf("directory declares %d pages but blocks end on page %d", pageCount, last)
		}
	}
	br.verified = make([]uint32, (len(br.meta)+31)/32)
	return br, int(pageCount), nil
}

// LoadFile loads a snapshot file into a fresh graph under the process-wide
// default storage. v3 (paged) snapshots load in O(open): the directory is
// validated but no payload page is read — under mmap storage the pages fault
// in on first use; under heap storage the file is read into memory and every
// block checksum is verified up front. v1/v2 snapshots stream-load on the heap
// under either storage setting.
func LoadFile(path string) (*Graph, error) {
	return LoadFileWith(path, DefaultStorage())
}

// LoadFileWith is LoadFile with an explicit storage.
func LoadFileWith(path string, st Storage) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	var hdr [len(snapshotMagicV3) + 1]byte // magic + v3 codec byte
	n, err := io.ReadFull(f, hdr[:])
	if n < len(snapshotMagicV3) {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: seeking snapshot: %w", err)
	}
	if n < len(hdr) || string(hdr[:len(snapshotMagicV3)]) != snapshotMagicV3 || hdr[len(snapshotMagicV3)] != snapshotCodecPacked {
		// v1/v2 predate paging and v3 varint payloads predate bit packing:
		// stream-load them on the heap (transcoding legacy blocks). The file
		// is not adopted as a paged source, so the next checkpoint rewrites
		// it in the current layout.
		return Load(f)
	}
	var g *Graph
	if st == StorageMmap {
		data, err := mmapFile(f)
		if err != nil {
			return nil, err
		}
		if g, err = loadPagedBytes(data, StorageMmap); err != nil {
			munmapFile(data)
			return nil, err
		}
	} else {
		full, err := io.ReadAll(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return nil, fmt.Errorf("store: reading snapshot: %w", err)
		}
		if g, err = loadPagedBytes(full, StorageHeap); err != nil {
			return nil, err
		}
	}
	// The file is a faithful paged image of the loaded content, so future
	// checkpoints may hard-link it instead of re-serializing.
	g.AdoptPagedSource(path)
	return g, nil
}

// loadPagedBytes builds a graph over a complete v3 snapshot image. st labels
// how the image is resident (and decides lazy vs eager payload checksums);
// the image itself was supplied by the caller. Legacy varint images must come
// in as StorageHeap: they are transcoded into fresh heap runs and the image
// is not retained.
func loadPagedBytes(full []byte, st Storage) (*Graph, error) {
	r := bytes.NewReader(full)
	pos := func() int { return len(full) - r.Len() }
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if string(magic[:]) != snapshotMagicV3 {
		return nil, fmt.Errorf("store: bad snapshot magic %q", magic[:])
	}
	codecByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: reading codec: %w", err)
	}
	if codecByte != snapshotCodecPacked && codecByte != snapshotCodecVarint {
		return nil, fmt.Errorf("store: unknown snapshot codec %d", codecByte)
	}
	packed := codecByte == snapshotCodecPacked
	blockSz, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading block size: %w", err)
	}
	if blockSz == 0 || blockSz > maxBlockCount {
		return nil, fmt.Errorf("store: invalid snapshot block size %d", blockSz)
	}
	pageSz64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading page size: %w", err)
	}
	pageSz := int(pageSz64)
	if pageSz64 < minPageSize || pageSz64 > maxPageSize || pageSz64&(pageSz64-1) != 0 {
		return nil, fmt.Errorf("store: invalid snapshot page size %d", pageSz64)
	}
	g := NewGraph()
	ids, termCount, err := readTerms(r, g)
	if err != nil {
		return nil, err
	}
	// As in v2: payloads reference dictionary IDs directly, so the snapshot's
	// ID space must survive interning unchanged.
	for i, id := range ids {
		if uint64(id) != uint64(i) {
			return nil, fmt.Errorf("store: snapshot terms are not unique (term %d)", i)
		}
	}
	maxID := rdf.ID(termCount)
	adds, err := readOverlaySection(r, "overlay-add", maxID)
	if err != nil {
		return nil, err
	}
	dels, err := readOverlaySection(r, "overlay-del", maxID)
	if err != nil {
		return nil, err
	}
	var counts [3]map[rdf.ID]int
	var totals [3]int64
	for i, section := range []string{"subject-count", "predicate-count", "object-count"} {
		if counts[i], totals[i], err = readIDCounts(r, section, maxID); err != nil {
			return nil, err
		}
	}
	var runs [numPerms]*blockRun
	var pageCounts [numPerms]int
	totalPages := 0
	for k := permKind(0); k < numPerms; k++ {
		br, pc, err := readPagedRun(r, pageSz, maxID, packed)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s run directory: %w", permName(k), err)
		}
		runs[k], pageCounts[k] = br, pc
		totalPages += pc
	}
	if runs[permPOS].n != runs[permSPO].n || runs[permOSP].n != runs[permSPO].n {
		return nil, fmt.Errorf("store: permutation runs disagree on size (%d/%d/%d)",
			runs[permSPO].n, runs[permPOS].n, runs[permOSP].n)
	}
	dirEnd := pos()
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("store: reading directory checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc32.ChecksumIEEE(full[:dirEnd]) {
		return nil, fmt.Errorf("store: snapshot directory checksum mismatch")
	}
	padEnd := (int64(pos()) + int64(pageSz) - 1) / int64(pageSz) * int64(pageSz)
	if want := padEnd + int64(totalPages)*int64(pageSz); int64(len(full)) != want {
		return nil, fmt.Errorf("store: snapshot is %d bytes, page layout requires %d", len(full), want)
	}
	off := padEnd
	for k := permKind(0); k < numPerms; k++ {
		br := runs[k]
		rlen := int64(pageCounts[k]) * int64(pageSz)
		br.data = full[off : off+rlen]
		off += rlen
		br.mapped = st == StorageMmap
		br.fenceInit()
		if st == StorageHeap {
			// The heap path already paid O(data) to read the file, so verify
			// every payload up front: Load from untrusted bytes then fails
			// with an error instead of a first-read panic.
			for bi := range br.meta {
				if err := br.checkCRC(bi); err != nil {
					return nil, fmt.Errorf("store: %s run: %w", permName(k), err)
				}
			}
		}
	}
	if !packed {
		// Legacy payloads: decode everything once through transcode
		// (validating as v2 does, including the cross-permutation set digest)
		// into packed heap runs, and discard the paged form.
		var sums [numPerms]uint64
		for k := permKind(0); k < numPerms; k++ {
			if g.runs[k], sums[k], err = transcode(runs[k], k, maxID, nil); err != nil {
				return nil, fmt.Errorf("store: %s run: %w", permName(k), err)
			}
		}
		if sums[permPOS] != sums[permSPO] || sums[permOSP] != sums[permSPO] {
			return nil, fmt.Errorf("store: permutation runs disagree on content")
		}
	} else {
		for k := permKind(0); k < numPerms; k++ {
			g.runs[k] = runs[k]
		}
		ps := pageStore(nil)
		if st == StorageMmap {
			ps = &mmapPages{data: full, n: totalPages, psz: pageSz}
		} else {
			ps = &heapPages{buf: full, n: totalPages, psz: pageSz}
		}
		g.pages = ps
	}
	// Install the delta overlay. Tombstones must reference run triples and
	// inserts must be new, or scans would double-count; each check reads at
	// most one block, so boot cost stays O(overlay), not O(data). Under mmap
	// those lazy reads are the one place load itself can trip a payload CRC
	// — which surfaces as a tagged panic on the trusted read path — so the
	// checks run under a recover that turns it back into a load error.
	if err := checkOverlayMembership(g, adds, dels); err != nil {
		return nil, err
	}
	for _, t := range dels {
		g.dels[t] = struct{}{}
	}
	for _, t := range adds {
		g.adds[t] = struct{}{}
	}
	g.n = runs[permSPO].n - len(dels) + len(adds)
	// The persisted count sections describe the live triple set (overlay
	// already folded in at save time); their totals triple-check n.
	for i := range totals {
		if totals[i] != int64(g.n) {
			return nil, fmt.Errorf("store: %s section total %d disagrees with %d live triples",
				[3]string{"subject-count", "predicate-count", "object-count"}[i], totals[i], g.n)
		}
	}
	g.countS, g.countP, g.countO = counts[0], counts[1], counts[2]
	g.storage = st
	g.version = int64(g.n) // mirror the v1/v2 paths
	return g, nil
}

// checkOverlayMembership validates overlay sections against the runs,
// converting the tagged corruption panic a lazily verified (mmap) block read
// can raise into a plain load error.
func checkOverlayMembership(g *Graph, adds, dels []rdf.EncodedTriple) (err error) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "store: corrupt block run: ") {
				panic(r)
			}
			err = fmt.Errorf("store: overlay check: %s", msg)
		}
	}()
	for _, t := range dels {
		if !g.inRunsLocked(t) {
			return fmt.Errorf("store: overlay tombstone %v not present in runs", t)
		}
	}
	for _, t := range adds {
		if g.inRunsLocked(t) {
			return fmt.Errorf("store: overlay insert %v already present in runs", t)
		}
	}
	return nil
}

// permName names a permutation for error messages.
func permName(k permKind) string {
	return [numPerms]string{"SPO", "POS", "OSP"}[k]
}
