package isax

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/vector"
)

func mustSchema(t *testing.T, n, w, bits int) *Schema {
	t.Helper()
	s, err := NewSchema(n, w, bits)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct{ n, w, bits int }{
		{256, 0, 8},
		{256, 17, 8},
		{256, 16, 0},
		{256, 16, 9},
		{255, 16, 8},
		{0, 16, 8},
		{-16, 16, 8},
	}
	for i, c := range cases {
		if _, err := NewSchema(c.n, c.w, c.bits); err == nil {
			t.Errorf("case %d (%+v): expected error", i, c)
		}
	}
}

func TestBreakpointsAreSortedAndSymmetric(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	bp := s.Breakpoints()
	if len(bp) != 255 {
		t.Fatalf("len(breakpoints) = %d, want 255", len(bp))
	}
	for i := 1; i < len(bp); i++ {
		if bp[i] <= bp[i-1] {
			t.Fatalf("breakpoints not strictly increasing at %d: %v <= %v", i, bp[i], bp[i-1])
		}
	}
	// Median breakpoint of a symmetric distribution is 0.
	if math.Abs(bp[127]) > 1e-12 {
		t.Errorf("middle breakpoint = %v, want 0", bp[127])
	}
	// Symmetry: bp[i] == -bp[len-1-i].
	for i := range bp {
		if math.Abs(bp[i]+bp[len(bp)-1-i]) > 1e-9 {
			t.Errorf("breakpoints not symmetric at %d: %v vs %v", i, bp[i], bp[len(bp)-1-i])
		}
	}
}

func TestBreakpointsLowCardinality(t *testing.T) {
	// Cardinality 4: quartiles of N(0,1) ~ -0.6745, 0, 0.6745.
	s := mustSchema(t, 16, 4, 2)
	bp := s.Breakpoints()
	want := []float64{-0.67448975, 0, 0.67448975}
	for i := range want {
		if math.Abs(bp[i]-want[i]) > 1e-6 {
			t.Errorf("bp[%d] = %v, want %v", i, bp[i], want[i])
		}
	}
}

func TestSymbolMonotonic(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	prev := s.Symbol(-10)
	if prev != 0 {
		t.Errorf("Symbol(-10) = %d, want 0", prev)
	}
	for v := -5.0; v <= 5.0; v += 0.01 {
		sym := s.Symbol(v)
		if sym < prev {
			t.Fatalf("Symbol not monotone at %v: %d < %d", v, sym, prev)
		}
		prev = sym
	}
	if s.Symbol(10) != 255 {
		t.Errorf("Symbol(10) = %d, want 255", s.Symbol(10))
	}
}

func TestSymbolRegionsRoundTrip(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		v := rng.NormFloat64() * 2
		sym := s.Symbol(v)
		lo, hi := s.Region(sym, uint8(s.CardBits))
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("value %v got symbol %d with region [%v,%v]", v, sym, lo, hi)
		}
	}
}

// The prefix property is what makes iSAX indexable: the symbol at b bits is
// the high-b-bit prefix of the symbol at any finer cardinality.
func TestSymbolPrefixProperty(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := r.NormFloat64() * 3
		sym8 := s.Symbol(v)
		for b := 1; b <= 8; b++ {
			coarse, err := NewSchema(256, 16, b)
			if err != nil {
				return false
			}
			if coarse.Symbol(v) != sym8>>(8-b) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRootIndex(t *testing.T) {
	s := mustSchema(t, 64, 4, 8)
	// Top bit of symbol (>=128 → 1).
	word := []uint8{200, 10, 255, 127}
	// bits: 1,0,1,0 → index 0b1010 = 10.
	if got := s.RootIndex(word); got != 10 {
		t.Errorf("RootIndex = %d, want 10", got)
	}
	if s.RootFanout() != 16 {
		t.Errorf("RootFanout = %d, want 16", s.RootFanout())
	}
}

func TestRootIndexRange(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		word := make([]uint8, 16)
		for i := range word {
			word[i] = uint8(rng.Intn(256))
		}
		idx := s.RootIndex(word)
		if idx < 0 || idx >= s.RootFanout() {
			t.Fatalf("RootIndex %d out of range [0,%d)", idx, s.RootFanout())
		}
	}
}

func TestSymbolAtBits(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	if got := s.SymbolAtBits(0b10110011, 3); got != 0b101 {
		t.Errorf("SymbolAtBits = %b, want 101", got)
	}
	if got := s.SymbolAtBits(0xFF, 8); got != 0xFF {
		t.Errorf("SymbolAtBits(.,8) = %d, want 255", got)
	}
}

func TestRegionWidensWithFewerBits(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	sym := uint8(0b10110011)
	prevLo, prevHi := s.Region(sym, 8)
	for b := uint8(7); b >= 1; b-- {
		lo, hi := s.Region(sym>>(8-b), b)
		if lo > prevLo || hi < prevHi {
			t.Fatalf("region at %d bits [%v,%v] does not contain region at %d bits [%v,%v]",
				b, lo, hi, b+1, prevLo, prevHi)
		}
		prevLo, prevHi = lo, hi
	}
	lo, hi := s.Region(0, 0)
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("0-bit region should be unbounded, got [%v,%v]", lo, hi)
	}
}

func randomSeries(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = float32(v)
	}
	series.ZNormalize(s)
	return s
}

// THE fundamental invariant: MinDist(PAA(q), word(c)) <= squared ED(q, c).
func TestMinDistLowerBoundsED(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSeries(r, 64)
		c := randomSeries(r, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		lb := s.MinDistPAAWord(qp, word)
		ed := vector.SquaredEuclidean(q, c)
		return lb <= ed+1e-6
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Prefix mindist (coarser summary) must lower-bound full-precision mindist.
func TestPrefixMinDistLowerBoundsWordMinDist(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSeries(r, 64)
		c := randomSeries(r, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		full := s.MinDistPAAWord(qp, word)
		symbols := make([]uint8, 16)
		bits := make([]uint8, 16)
		for i := range bits {
			b := uint8(r.Intn(9)) // 0..8 bits
			bits[i] = b
			if b > 0 {
				symbols[i] = s.SymbolAtBits(word[i], b)
			}
		}
		prefix := s.MinDistPAAPrefix(qp, symbols, bits)
		return prefix <= full+1e-9
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// At full bits on every segment, prefix mindist equals word mindist.
func TestPrefixMinDistAtFullBitsEqualsWord(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		q := randomSeries(rng, 64)
		c := randomSeries(rng, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		bits := make([]uint8, 16)
		for i := range bits {
			bits[i] = 8
		}
		full := s.MinDistPAAWord(qp, word)
		prefix := s.MinDistPAAPrefix(qp, word, bits)
		if math.Abs(full-prefix) > 1e-9 {
			t.Fatalf("trial %d: word %v vs prefix %v", trial, full, prefix)
		}
	}
}

// The naive (SISD) and table-driven (SIMD stand-in) lower-bound kernels
// must agree exactly — the Figure 18 ablation varies speed, not results.
func TestMinDistNaiveMatchesFast(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(40))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSeries(r, 64)
		c := randomSeries(r, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		fast := s.MinDistPAAWord(qp, word)
		naive := s.MinDistPAAWordNaive(qp, word)
		return math.Abs(fast-naive) <= 1e-12*(1+fast)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinDistSelfIsZero(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		q := randomSeries(rng, 64)
		qp := paa.Transform(q, 16, nil)
		word := s.WordFromPAA(qp, nil)
		if lb := s.MinDistPAAWord(qp, word); lb != 0 {
			t.Fatalf("MinDist(series, own word) = %v, want 0", lb)
		}
	}
}

// Envelope mindist with a degenerate envelope (U = L = PAA of q) equals the
// regular PAA mindist.
func TestEnvelopeMinDistDegenerate(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		q := randomSeries(rng, 64)
		c := randomSeries(rng, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		reg := s.MinDistPAAWord(qp, word)
		env := s.MinDistEnvelopeWord(qp, qp, word)
		if math.Abs(reg-env) > 1e-9 {
			t.Fatalf("trial %d: regular %v vs degenerate envelope %v", trial, reg, env)
		}
	}
}

// A wider envelope can only shrink the envelope mindist.
func TestEnvelopeMinDistMonotoneInWidth(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSeries(r, 64)
		c := randomSeries(r, 64)
		qp := paa.Transform(q, 16, nil)
		cp := paa.Transform(c, 16, nil)
		word := s.WordFromPAA(cp, nil)
		narrowU := make([]float64, 16)
		narrowL := make([]float64, 16)
		wideU := make([]float64, 16)
		wideL := make([]float64, 16)
		for i := range qp {
			d := r.Float64()
			narrowU[i], narrowL[i] = qp[i]+d, qp[i]-d
			wideU[i], wideL[i] = qp[i]+2*d, qp[i]-2*d
		}
		narrow := s.MinDistEnvelopeWord(narrowU, narrowL, word)
		wide := s.MinDistEnvelopeWord(wideU, wideL, word)
		if wide > narrow+1e-9 {
			return false
		}
		// Prefix variant obeys the same ordering at random bits.
		bits := make([]uint8, 16)
		symbols := make([]uint8, 16)
		for i := range bits {
			bits[i] = uint8(1 + r.Intn(8))
			symbols[i] = s.SymbolAtBits(word[i], bits[i])
		}
		np := s.MinDistEnvelopePrefix(narrowU, narrowL, symbols, bits)
		wp := s.MinDistEnvelopePrefix(wideU, wideL, symbols, bits)
		return wp <= np+1e-9 && wp <= wide+1e-9 && np <= narrow+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatchesPrefix(t *testing.T) {
	s := mustSchema(t, 256, 16, 8)
	word := make([]uint8, 16)
	for i := range word {
		word[i] = uint8(i * 16)
	}
	symbols := make([]uint8, 16)
	bits := make([]uint8, 16)
	for i := range bits {
		bits[i] = uint8(1 + i%8)
		symbols[i] = s.SymbolAtBits(word[i], bits[i])
	}
	if !s.MatchesPrefix(word, symbols, bits) {
		t.Error("word should match its own prefix")
	}
	symbols[3] ^= 1
	if s.MatchesPrefix(word, symbols, bits) {
		t.Error("corrupted prefix should not match")
	}
	// Zero-bit segments match anything.
	for i := range bits {
		bits[i] = 0
	}
	if !s.MatchesPrefix(word, symbols, bits) {
		t.Error("all-zero-bit prefix must match any word")
	}
}

func TestWordFromPAAReusesDst(t *testing.T) {
	s := mustSchema(t, 64, 16, 8)
	paaVec := make([]float64, 16)
	dst := make([]uint8, 16)
	got := s.WordFromPAA(paaVec, dst)
	if &got[0] != &dst[0] {
		t.Error("WordFromPAA should reuse dst")
	}
}

func TestFormatWord(t *testing.T) {
	s := mustSchema(t, 8, 4, 8)
	if got := s.FormatWord([]uint8{1, 2, 3, 4}); got != "[1 2 3 4]" {
		t.Errorf("FormatWord = %q", got)
	}
}

// Breakpoints returns the full-cardinality breakpoint table (read-only).
func (s *Schema) Breakpoints() []float64 { return s.breakpoints }

// MinDistEnvelopePrefix is MinDistEnvelopeWord for variable-cardinality
// node prefixes.
func (s *Schema) MinDistEnvelopePrefix(uMax, lMin []float64, symbols, bits []uint8) float64 {
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
		if lo := s.regionLower[first]; uMax[i] < lo {
			d := lo - uMax[i]
			sum += d * d
		} else if hi := s.regionUpper[last]; lMin[i] > hi {
			d := lMin[i] - hi
			sum += d * d
		}
	}
	return sum * s.ratio
}

// MatchesPrefix reports whether a full-precision word falls under a
// variable-cardinality prefix (i.e. each symbol's b-bit prefix equals the
// prefix symbol). Used by tree invariant checks.
func (s *Schema) MatchesPrefix(word, symbols, bits []uint8) bool {
	for i := 0; i < s.Segments; i++ {
		b := bits[i]
		if b == 0 {
			continue
		}
		if s.SymbolAtBits(word[i], b) != symbols[i] {
			return false
		}
	}
	return true
}

// FormatWord renders a word in the paper's subscripted style, e.g.
// "10(8) 00(8) ..." is abbreviated to decimal symbols: "[134 7 ...]".
// Intended for debugging and error messages only.
func (s *Schema) FormatWord(word []uint8) string {
	return fmt.Sprint(word[:s.Segments])
}
