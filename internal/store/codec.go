package store

import (
	"fmt"
	"sync/atomic"

	"sofos/internal/rdf"
)

// Codec selects the storage representation for a graph's immutable sorted
// runs. The block codec is the production default (bit-packed
// frame-of-reference blocks searched in place, see block.go); the flat codec
// is the original fixed-width layout, kept selectable as the
// differential-test oracle and for flat-vs-block benchmarking.
type Codec uint8

const (
	// CodecBlock stores runs as fixed-size bit-packed blocks.
	CodecBlock Codec = iota
	// CodecFlat stores runs as plain []rdf.EncodedTriple slices.
	CodecFlat
)

// String returns the codec's flag-compatible name.
func (c Codec) String() string {
	if c == CodecFlat {
		return "flat"
	}
	return "block"
}

// ParseCodec parses a -codec flag value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "block":
		return CodecBlock, nil
	case "flat":
		return CodecFlat, nil
	default:
		return CodecBlock, fmt.Errorf("store: unknown codec %q (want flat or block)", s)
	}
}

func (c Codec) runCodec() runCodec {
	if c == CodecFlat {
		return flatCodec{}
	}
	return blockCodec{}
}

// defaultCodec is the process-wide codec for graphs created without an
// explicit choice (NewGraph, BuildFrom, Load). Binaries set it once at
// startup from the -codec flag; it is atomic so tests can flip it safely
// around parallel subtests.
var defaultCodec atomic.Uint32 // holds a Codec

// SetDefaultCodec sets the process-wide default run codec.
func SetDefaultCodec(c Codec) { defaultCodec.Store(uint32(c)) }

// DefaultCodec returns the process-wide default run codec.
func DefaultCodec() Codec { return Codec(defaultCodec.Load()) }

// NewGraphWithCodec returns an empty graph whose runs use the given codec.
func NewGraphWithCodec(c Codec) *Graph {
	g := NewGraph()
	g.codec = c.runCodec()
	return g
}

// BuildFromWithCodec is BuildFrom with an explicit run codec.
func BuildFromWithCodec(c Codec, ts []rdf.Triple) (*Graph, error) {
	g := NewGraphWithCodec(c)
	if _, err := g.LoadTriples(ts); err != nil {
		return nil, err
	}
	return g, nil
}

// CodecName returns the name of the codec this graph's runs use.
func (g *Graph) CodecName() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.codec.name()
}
