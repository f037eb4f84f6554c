// Package isax implements the indexable Symbolic Aggregate approXimation
// (iSAX) representation (Shieh & Keogh, KDD 2008) used by MESSI: each PAA
// segment mean is quantized against N(0,1) breakpoints into a small symbol,
// and symbols support variable cardinality — dropping low-order bits of a
// symbol widens its region, which is what lets an iSAX tree refine node
// summaries one bit at a time.
//
// Conventions in this package:
//
//   - A "word" is a full-precision summary: one symbol per segment, each
//     using the maximum number of bits (CardBits, 8 in the paper). Words are
//     stored as flat []uint8 with one byte per segment.
//   - A "prefix" is a variable-cardinality summary: per-segment symbols plus
//     the number of bits each symbol uses. Tree nodes carry prefixes.
//   - All distances returned are SQUARED lower bounds of the true squared
//     Euclidean distance (hot paths never take square roots).
package isax

import (
	"fmt"
	"math"
	"sort"
)

// MaxSegments bounds the number of PAA segments (w). Root subtrees are
// addressed by one bit on each of at most w segments, so the root fanout
// is at most 2^w; 16 matches the paper and keeps the fanout addressable by
// a dense array and a root key by a uint16.
const MaxSegments = 16

// MaxCardBits bounds the per-symbol bit width; 8 bits (alphabet cardinality
// 256) is the maximum used in the iSAX literature and in the paper.
const MaxCardBits = 8

// Schema fixes the iSAX parameters for one index: the series length n, the
// number of segments w, and the per-symbol bit budget. It precomputes the
// N(0,1) breakpoints and per-symbol region bounds at full cardinality.
type Schema struct {
	SeriesLen int // n: points per series
	Segments  int // w: PAA segments per word
	CardBits  int // bits per symbol; cardinality = 1<<CardBits

	ratio       float64   // n/w, the MINDIST scale factor
	breakpoints []float64 // (1<<CardBits)-1 ascending N(0,1) quantiles
	regionLower []float64 // per full-precision symbol: lower region bound
	regionUpper []float64 // per full-precision symbol: upper region bound
}

// SameGeometry reports whether two schemas quantize identically — same
// series length, segments and cardinality, hence identical breakpoint and
// region tables. Shards of one collection hold distinct Schema instances
// with the same geometry; per-query distance tables built against one are
// shaped and valued exactly for the other, so pooled tables may be reused
// across them.
func (s *Schema) SameGeometry(o *Schema) bool {
	return s == o || (o != nil && s.SeriesLen == o.SeriesLen &&
		s.Segments == o.Segments && s.CardBits == o.CardBits)
}

// NewSchema validates the parameters and precomputes the quantization
// tables. SeriesLen must be a positive multiple of Segments.
func NewSchema(seriesLen, segments, cardBits int) (*Schema, error) {
	if segments <= 0 || segments > MaxSegments {
		return nil, fmt.Errorf("isax: segments must be in [1,%d], got %d", MaxSegments, segments)
	}
	if cardBits <= 0 || cardBits > MaxCardBits {
		return nil, fmt.Errorf("isax: cardBits must be in [1,%d], got %d", MaxCardBits, cardBits)
	}
	if seriesLen <= 0 || seriesLen%segments != 0 {
		return nil, fmt.Errorf("isax: series length %d must be a positive multiple of segments %d", seriesLen, segments)
	}
	s := &Schema{
		SeriesLen: seriesLen,
		Segments:  segments,
		CardBits:  cardBits,
		ratio:     float64(seriesLen) / float64(segments),
	}
	card := 1 << cardBits
	s.breakpoints = make([]float64, card-1)
	for i := range s.breakpoints {
		p := float64(i+1) / float64(card)
		s.breakpoints[i] = math.Sqrt2 * math.Erfinv(2*p-1)
	}
	s.regionLower = make([]float64, card)
	s.regionUpper = make([]float64, card)
	for sym := 0; sym < card; sym++ {
		if sym == 0 {
			s.regionLower[sym] = math.Inf(-1)
		} else {
			s.regionLower[sym] = s.breakpoints[sym-1]
		}
		if sym == card-1 {
			s.regionUpper[sym] = math.Inf(1)
		} else {
			s.regionUpper[sym] = s.breakpoints[sym]
		}
	}
	return s, nil
}

// Cardinality returns the full alphabet cardinality (1 << CardBits).
func (s *Schema) Cardinality() int { return 1 << s.CardBits }

// RootFanout returns the number of root subtrees of MESSI's tree,
// 2^Segments: the root children are addressed by the top bit of each
// segment's symbol (a tree keyed on fewer segments has fewer).
func (s *Schema) RootFanout() int { return 1 << s.Segments }

// Symbol quantizes a single PAA value to a full-precision symbol.
func (s *Schema) Symbol(v float64) uint8 {
	// SearchFloat64s returns the number of breakpoints < v (for values
	// exactly on a breakpoint it returns that breakpoint's index, placing
	// the value in the lower region; either choice yields valid bounds).
	return uint8(sort.SearchFloat64s(s.breakpoints, v))
}

// WordFromPAA quantizes a PAA vector into a full-precision word, writing
// into dst (allocated if too small) and returning it.
func (s *Schema) WordFromPAA(paa []float64, dst []uint8) []uint8 {
	if cap(dst) < s.Segments {
		dst = make([]uint8, s.Segments)
	}
	dst = dst[:s.Segments]
	for i := 0; i < s.Segments; i++ {
		dst[i] = s.Symbol(paa[i])
	}
	return dst
}

// SymbolAtBits reduces a full-precision symbol to b bits (its b-bit prefix).
func (s *Schema) SymbolAtBits(sym uint8, b uint8) uint8 {
	return sym >> (uint8(s.CardBits) - b)
}

// RootIndex maps a full-precision word to its root subtree slot: the top
// bit of each segment's symbol, packed with segment 0 as the high bit. A
// root keyed on the first k segments takes its top k bits.
func (s *Schema) RootIndex(word []uint8) int {
	top := uint(s.CardBits - 1)
	idx := 0
	for i := 0; i < s.Segments; i++ {
		idx = idx<<1 | int(word[i]>>top)
	}
	return idx
}

// Region returns the raw-value interval covered by a symbol expressed with
// b bits: the union of the full-precision regions sharing that b-bit
// prefix. b == 0 yields (-Inf, +Inf).
func (s *Schema) Region(sym uint8, b uint8) (lo, hi float64) {
	if b == 0 {
		return math.Inf(-1), math.Inf(1)
	}
	shift := uint(s.CardBits) - uint(b)
	first := int(sym) << shift
	last := first + (1 << shift) - 1
	return s.regionLower[first], s.regionUpper[last]
}

// MinDistPAAWord returns the squared iSAX lower bound between a query PAA
// vector and a full-precision word: (n/w) * sum of squared per-segment
// excursions of the PAA outside the symbol's region. It never exceeds the
// squared Euclidean distance between the underlying series.
func (s *Schema) MinDistPAAWord(paa []float64, word []uint8) float64 {
	var sum float64
	for i := 0; i < s.Segments; i++ {
		sym := word[i]
		v := paa[i]
		if lo := s.regionLower[sym]; v < lo {
			d := lo - v
			sum += d * d
		} else if hi := s.regionUpper[sym]; v > hi {
			d := v - hi
			sum += d * d
		}
	}
	return sum * s.ratio
}

// MinDistPAAWordNaive computes the same bound as MinDistPAAWord in the
// straightforward one-segment-at-a-time style of pre-vectorization code:
// region bounds are derived per segment via Region (function call + shifts)
// instead of streaming through the precomputed tables. It exists for the
// ParIS-SISD ablation (Figure 18), where the paper compares its SIMD
// lower-bound kernel against the scalar original; the two functions always
// return identical values.
func (s *Schema) MinDistPAAWordNaive(paa []float64, word []uint8) float64 {
	var sum float64
	for i := 0; i < s.Segments; i++ {
		lo, hi := s.Region(word[i], uint8(s.CardBits))
		v := paa[i]
		if v < lo {
			d := lo - v
			sum += d * d
		}
		if v > hi {
			d := v - hi
			sum += d * d
		}
	}
	return sum * s.ratio
}

// MinDistPAAPrefix returns the squared iSAX lower bound between a query PAA
// vector and a variable-cardinality prefix (per-segment symbols + bits).
// Segments with zero bits contribute nothing.
func (s *Schema) MinDistPAAPrefix(paa []float64, symbols, bits []uint8) float64 {
	var sum float64
	cardBits := uint(s.CardBits)
	for i := 0; i < s.Segments; i++ {
		b := uint(bits[i])
		if b == 0 {
			continue
		}
		shift := cardBits - b
		first := int(symbols[i]) << shift
		last := first + (1 << shift) - 1
		v := paa[i]
		if lo := s.regionLower[first]; v < lo {
			d := lo - v
			sum += d * d
		} else if hi := s.regionUpper[last]; v > hi {
			d := v - hi
			sum += d * d
		}
	}
	return sum * s.ratio
}

// MinDistEnvelopeWord returns the squared lower bound between a query's
// LB_Keogh envelope (summarized per segment by the maximum of the upper
// envelope, uMax, and the minimum of the lower envelope, lMin) and a
// full-precision word. Used for DTW query answering: it lower-bounds
// LB_Keogh(query, candidate), which lower-bounds cDTW(query, candidate).
func (s *Schema) MinDistEnvelopeWord(uMax, lMin []float64, word []uint8) float64 {
	var sum float64
	for i := 0; i < s.Segments; i++ {
		sym := word[i]
		if lo := s.regionLower[sym]; uMax[i] < lo {
			d := lo - uMax[i]
			sum += d * d
		} else if hi := s.regionUpper[sym]; lMin[i] > hi {
			d := lMin[i] - hi
			sum += d * d
		}
	}
	return sum * s.ratio
}
