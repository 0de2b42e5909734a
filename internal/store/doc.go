// Package store implements the dictionary-encoded, fully indexed in-memory
// triple store that serves as SOFOS's RDF substrate. A Graph maintains
// three columnar permutation indexes (SPO, POS, OSP) — sorted runs, flat or
// in bit-packed blocks searched in place, with binary-search range lookup
// plus a small LSM-style delta overlay — so
// that every triple-pattern shape, any combination of bound and unbound
// components, is answered by one contiguous range scan. This is the layout
// of native RDF stores such as RDF-3X/HDT and is what the paper assumes of
// "any RDF triple store with SPARQL query processing".
//
// Concurrency: a Graph is safe for concurrent readers, with writes
// serialized by an internal mutex. Reads are snapshot-isolated per scan —
// an Iterator captures the immutable run slices plus a copy of its
// in-range delta, so it never holds the graph lock while yielding and
// stays valid (returning the same triples) across concurrent mutations.
// Compaction and bulk loads replace run slices wholesale rather than
// mutating them, which is what makes the zero-coordination parallel scans
// of internal/engine and the serve-during-maintenance behaviour of
// internal/server possible.
//
// Beyond point mutations (Add/Remove), the store offers batched bulk paths
// (LoadTriples/LoadEncoded/RemoveTriples, BuildFrom) that take the write
// lock once and sort-merge into the runs, a near-O(n) memcpy Clone used to
// derive the expanded graph G+, exact pattern-cardinality Estimate for the
// planner, per-predicate statistics (Stats), a binary snapshot format
// (Save/Load), and Version — a mutation counter view catalogs compare to
// detect staleness. Apply commits a whole insert+delete batch under one
// lock and returns its effective Delta (the triples actually added and
// removed, tagged with the version interval) so writers capture ΔG at
// commit time for incremental view maintenance; OverlayWith builds an
// O(|Δ|) read-only union of the graph and extra triples — sharing the
// immutable runs — which maintenance uses to evaluate delete-side joins
// against the pre-update state. NestedMapGraph preserves the seed's
// nested-map design as a differential-testing and benchmarking baseline.
package store
