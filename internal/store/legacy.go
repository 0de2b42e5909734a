package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"sofos/internal/rdf"
)

// Legacy varint block payloads. v2 snapshots, and v3 snapshots written with
// codec byte snapshotCodecVarint, carry blocks in the delta/varint layout
// that preceded bit packing:
//
//	payload := c0-section c1-section c2-section        (count-1 entries each)
//	c0-section: uvarint(c0[i] - c0[i-1])               (leading column, sorted:
//	                                                    deltas are non-negative)
//	c1-section: zigzag-varint(c1[i] - min[1])          (unsorted columns encode
//	c2-section: zigzag-varint(c2[i] - min[2])           against the fence min)
//
// Key 0 is the fence's min key, so a one-key block has an empty payload.
// Nothing writes this layout any more. Such runs are never served: loading
// decodes them once through transcode into packed heap runs, which makes
// decodeVarint the only varint block decoder left.

// decodeVarint expands legacy block bi into the arena, validating the payload
// as it goes: every varint must be well-formed and in-bounds, every decoded
// component must fit an rdf.ID, and the payload must be consumed exactly.
func (r *blockRun) decodeVarint(bi int, a *spanArena) error {
	m := &r.meta[bi]
	if int(m.off) > len(r.data) || r.payloadEnd(bi) > len(r.data) {
		return fmt.Errorf("block %d: payload offsets out of range", bi)
	}
	if err := r.checkCRC(bi); err != nil {
		return err
	}
	p := r.data[m.off:r.payloadEnd(bi)]
	cnt := int(m.count)
	a.grow(cnt)
	a.c0[0], a.c1[0], a.c2[0] = m.min[0], m.min[1], m.min[2]
	pos := 0
	acc := uint64(m.min[0])
	for i := 1; i < cnt; i++ {
		v, w := binary.Uvarint(p[pos:])
		if w <= 0 {
			return fmt.Errorf("block %d: truncated c0 varint at entry %d", bi, i)
		}
		pos += w
		acc += v
		if acc > math.MaxUint32 {
			return fmt.Errorf("block %d: c0 overflows at entry %d", bi, i)
		}
		a.c0[i] = rdf.ID(acc)
	}
	for c, col := range [2][]rdf.ID{a.c1, a.c2} {
		base := int64(m.min[c+1])
		for i := 1; i < cnt; i++ {
			v, w := binary.Varint(p[pos:])
			if w <= 0 {
				return fmt.Errorf("block %d: truncated c%d varint at entry %d", bi, c+1, i)
			}
			pos += w
			val := base + v
			if val < 0 || val > math.MaxUint32 {
				return fmt.Errorf("block %d: c%d out of range at entry %d", bi, c+1, i)
			}
			col[i] = rdf.ID(val)
		}
	}
	if pos != len(p) {
		return fmt.Errorf("block %d: %d trailing payload bytes", bi, len(p)-pos)
	}
	return nil
}

// transcode fully decodes a snapshot-loaded legacy run block by block and
// re-encodes its keys as packed blocks. On the way it checks
// the structural invariants the run must satisfy: sane counts and starts,
// monotonic payload offsets, strictly increasing keys within and across
// blocks, fences that match the decoded content, component IDs inside the
// dictionary, and a total matching n. It returns the rebuilt run and the sum
// over triples of triple hashes (order-independent, with components mapped
// back to SPO order through kind) so the caller can cross-check that the
// three permutations hold the same triple set, and invokes each for every
// key in SPO component order when non-nil.
func transcode(r *blockRun, kind permKind, maxID rdf.ID, each func(s, p, o rdf.ID)) (run, uint64, error) {
	b := blockCodec{}.newBuilder(min(r.n, 1<<20))
	var a spanArena
	var sum uint64
	var prev rdf.EncodedTriple
	total := 0
	for bi := range r.meta {
		m := &r.meta[bi]
		if m.count == 0 || m.count > maxBlockCount {
			return nil, 0, fmt.Errorf("block %d: invalid count %d", bi, m.count)
		}
		if m.start != total {
			return nil, 0, fmt.Errorf("block %d: start %d, want %d", bi, m.start, total)
		}
		if bi > 0 && int(m.off) < int(r.meta[bi-1].off) {
			return nil, 0, fmt.Errorf("block %d: payload offset regresses", bi)
		}
		if err := r.decodeVarint(bi, &a); err != nil {
			return nil, 0, err
		}
		if a.key(0) != m.min || a.key(a.n-1) != m.max {
			return nil, 0, fmt.Errorf("block %d: fence does not match decoded keys", bi)
		}
		for i := 0; i < a.n; i++ {
			k := a.key(i)
			if (bi > 0 || i > 0) && cmpKeys(prev, k) >= 0 {
				return nil, 0, fmt.Errorf("block %d: keys not strictly increasing at entry %d", bi, i)
			}
			prev = k
			s, p, o := kind.spo(k)
			if s == rdf.NoID || s > maxID || p == rdf.NoID || p > maxID || o == rdf.NoID || o > maxID {
				return nil, 0, fmt.Errorf("block %d: component id out of dictionary range at entry %d", bi, i)
			}
			sum += tripleHash(s, p, o)
			if each != nil {
				each(s, p, o)
			}
			b.add(k)
		}
		total += a.n
	}
	if total != r.n {
		return nil, 0, fmt.Errorf("block run: %d keys decoded, header says %d", total, r.n)
	}
	return b.finish(), sum, nil
}
