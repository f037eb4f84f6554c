package isax

// DistTable is a per-query table of per-segment squared MINDIST
// contributions, the vectorization-friendly form of the lower-bound
// kernels: built once per query from the query's PAA vector (or its
// LB_Keogh envelope summary for DTW), it turns every subsequent lower
// bound into w table loads and adds — no breakpoint comparisons, no
// branchy region lookups on the hot path. This is the same
// transformation the paper applies to make its kernels SIMD-friendly
// (§V, Figure 18): the data-dependent branches move out of the
// per-candidate loop and into a once-per-query table build.
//
// The table is hierarchical: level b (1 ≤ b ≤ CardBits) holds one cell
// per segment per b-bit symbol, so variable-cardinality node prefixes are
// a direct lookup too. Level CardBits is computed from the region bounds
// exactly as MinDistPAAWord computes its excursions; each coarser level
// is the pairwise minimum of the level below, which reproduces the
// widened-region excursion exactly: region lower bounds ascend and upper
// bounds descend within a prefix's symbol range, so the widened
// excursion is always attained by the range's first cell (query below
// the region), its last cell (query above), or a zero cell inside it.
// All results are therefore bitwise identical to the scalar kernels
// (MinDistPAAWord, MinDistPAAPrefix and the envelope variants) — the
// property the equivalence fuzz test pins down.
//
// The paper's lower-bound SIMD is one step further: on CPUs with AVX-512
// VBMI a leaf scan (internal/core) quantizes the full-cardinality rows
// (Row) to a byte per cell once per drain phase, sums a leaf's columns 64
// entries at a time with VPERMI2B lookups, and only the entries that sum
// cannot rule out get the float64 bound from these cells.
//
// A root level serves the root children, which carry one bit on each of
// their first k segments and none on the rest: for every h-bit root-key
// prefix (h ≤ min(w, 8)) the partial sum of its first h one-bit cells, so
// a root bound is one load plus k − h adds (RootBound).
//
// Memory: one flat allocation of w × (2^(CardBits+1) − 2) float64 cells
// (64 KiB at the paper's w=16, CardBits=8) and 2^(h+1) root sums (4 KiB),
// reused across queries via Build. A DistTable is owned by one query at a
// time; concurrent readers are safe once built.
type DistTable struct {
	schema *Schema
	cells  []float64
	// levelOff[b] is the offset of level b's block in cells; the block
	// holds Segments × 2^b cells, segment-major (segment s's row starts
	// at levelOff[b] + s<<b).
	levelOff [MaxCardBits + 1]int
	// root[1<<h + p] is the sum, in segment order, of the one-bit cells of
	// the h-bit root-key prefix p, for every h ≤ rootLevels = min(w, 8).
	root       []float64
	rootLevels int
}

// NewDistTable allocates an empty distance table for this schema. Call
// BuildPAA or BuildEnvelope before querying it.
func (s *Schema) NewDistTable() *DistTable {
	t := &DistTable{schema: s}
	off := 0
	for b := 1; b <= s.CardBits; b++ {
		t.levelOff[b] = off
		off += s.Segments << b
	}
	t.cells = make([]float64, off)
	h := min(s.Segments, 8)
	t.root, t.rootLevels = make([]float64, 2<<h), h
	return t
}

// Schema returns the schema the table was allocated for. Callers that
// pool tables across queries must rebuild (or reallocate) when the index
// schema changes.
func (t *DistTable) Schema() *Schema { return t.schema }

// Scale returns the MINDIST scale factor n/w that turns a sum of cells
// into the squared lower bound. Kernels that accumulate cells themselves
// (segment-major leaf scans) multiply by it once per candidate.
func (t *DistTable) Scale() float64 { return t.schema.ratio }

// BuildPAA fills the table for a Euclidean query with the given PAA
// vector: cell (seg, sym) is the squared excursion of paa[seg] outside
// symbol sym's region, exactly as MinDistPAAWord computes it.
func (t *DistTable) BuildPAA(paa []float64) { t.build(paa, paa) }

// BuildEnvelope fills the table for a DTW query from its LB_Keogh
// envelope summary, exactly as MinDistEnvelopeWord computes its
// excursions. The summary may be the segment means of the upper and the
// lower envelope (their PAA, the tightest) or their segment max and min.
// Callers must pass a real envelope summary (lMin[i] ≤ uMax[i] for all
// i); the hierarchical levels assume the two bounds bracket a common
// value, which every LB_Keogh envelope satisfies.
func (t *DistTable) BuildEnvelope(uMax, lMin []float64) { t.build(uMax, lMin) }

// build fills level CardBits from the full-precision region bounds, then
// derives each coarser level as the pairwise min of the one below. For
// Euclidean queries upper == lower == the PAA vector.
func (t *DistTable) build(upper, lower []float64) {
	s := t.schema
	card := 1 << s.CardBits
	full := t.cells[t.levelOff[s.CardBits]:]
	for seg := 0; seg < s.Segments; seg++ {
		row := full[seg*card : (seg+1)*card]
		u, l := upper[seg], lower[seg]
		for sym := 0; sym < card; sym++ {
			if lo := s.regionLower[sym]; u < lo {
				d := lo - u
				row[sym] = d * d
			} else if hi := s.regionUpper[sym]; l > hi {
				d := l - hi
				row[sym] = d * d
			} else {
				row[sym] = 0
			}
		}
	}
	for b := s.CardBits - 1; b >= 1; b-- {
		coarse := t.cells[t.levelOff[b]:]
		fine := t.cells[t.levelOff[b+1]:]
		n := s.Segments << b
		for i := 0; i < n; i++ {
			a, c := fine[2*i], fine[2*i+1]
			if c < a {
				a = c
			}
			coarse[i] = a
		}
	}
	// Each root level extends the one above by segment h's one-bit cells.
	one := t.cells[t.levelOff[1]:]
	t.root[1] = 0
	for h := 0; h < t.rootLevels; h++ {
		for p := 0; p < 1<<h; p++ {
			v := t.root[1<<h+p]
			t.root[2<<h+2*p], t.root[2<<h+2*p+1] = v+one[2*h], v+one[2*h+1]
		}
	}
}

// MinDistWord returns the squared lower bound against a full-precision
// word: w loads from the full-cardinality level, summed in segment order
// and scaled — bitwise identical to Schema.MinDistPAAWord (or
// MinDistEnvelopeWord, per how the table was built).
func (t *DistTable) MinDistWord(word []uint8) float64 {
	s := t.schema
	full := t.cells[t.levelOff[s.CardBits]:]
	card := 1 << s.CardBits
	var sum float64
	for i := 0; i < s.Segments; i++ {
		sum += full[i*card+int(word[i])]
	}
	return sum * s.ratio
}

// MinDistPrefix returns the squared lower bound against a
// variable-cardinality prefix (per-segment symbols + bits): one load
// from level bits[i] per segment. Segments with zero bits contribute
// nothing. Bitwise identical to Schema.MinDistPAAPrefix (or the tests'
// MinDistEnvelopePrefix).
func (t *DistTable) MinDistPrefix(symbols, bits []uint8) float64 {
	s := t.schema
	var sum float64
	for i := 0; i < s.Segments; i++ {
		b := int(bits[i])
		if b == 0 {
			continue
		}
		sum += t.cells[t.levelOff[b]+(i<<b)+int(symbols[i])]
	}
	return sum * s.ratio
}

// RootBound returns the squared lower bound against the root child of
// k-bit root key key (the top bit of segments 0…k−1, segment 0 the high
// bit), which has one bit on those segments and none on the rest: the root
// level's partial sum, then the remaining key segments' one-bit cells in
// segment order — bitwise identical to MinDistPrefix on that child's
// symbols and bits.
func (t *DistTable) RootBound(key, k int) float64 {
	h := min(k, t.rootLevels)
	sum := t.root[1<<h+key>>(k-h)]
	for i := h; i < k; i++ {
		sum += t.cells[2*i+key>>(k-1-i)&1] // level 1 starts at cells[0]
	}
	return sum * t.schema.ratio
}

// Row returns segment seg's full-cardinality cell row (2^CardBits
// unscaled cells, indexed by symbol) — the inner operand of segment-major
// leaf scans: a whole leaf's lower bounds are w column passes of
// acc[e] += row[col[e]], then one scale by Scale() per entry.
func (t *DistTable) Row(seg int) []float64 {
	s := t.schema
	card := 1 << s.CardBits
	off := t.levelOff[s.CardBits] + seg*card
	return t.cells[off : off+card]
}
