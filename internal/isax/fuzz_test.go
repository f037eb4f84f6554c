package isax

import (
	"math"
	"testing"
)

// FuzzDistTableEquivalence checks that the per-query distance table
// returns exactly the scalar kernels' values — full-precision words
// against MinDistPAAWordNaive (and MinDistPAAWord), and random
// variable-cardinality prefixes against MinDistPAAPrefix, root children
// against MinDistPAAPrefix and MinDistEnvelopePrefix — across arbitrary
// PAA vectors, words, segment counts, cardinalities, and prefix bit
// budgets.
func FuzzDistTableEquivalence(f *testing.F) {
	f.Add(float64(0), float64(0), uint8(0), uint8(255), uint8(8), uint8(3), uint8(15))
	f.Add(float64(3.7), float64(-2.2), uint8(17), uint8(200), uint8(5), uint8(0), uint8(8))
	f.Add(float64(-0.4), float64(9.9), uint8(128), uint8(1), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, a, b float64, symA, symB, cardBits, prefixBits, segs uint8) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Skip()
		}
		cb := int(cardBits)%MaxCardBits + 1 // [1, MaxCardBits]
		w := int(segs)%MaxSegments + 1      // [1, MaxSegments]
		s, err := NewSchema(2*w, w, cb)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint8(s.Cardinality() - 1)
		paa := make([]float64, w)
		word := make([]uint8, w)
		symbols := make([]uint8, w)
		bits := make([]uint8, w)
		for i := range paa {
			if i%2 == 0 {
				paa[i], word[i] = a, symA&mask
			} else {
				paa[i], word[i] = b, symB&mask
			}
			// Derive a prefix bit budget per segment from the fuzzed
			// byte, cycling so different segments get different widths.
			bits[i] = (prefixBits + uint8(i)) % uint8(cb+1)
			if bits[i] > 0 {
				symbols[i] = word[i] >> (uint8(cb) - bits[i])
			}
		}
		tab := s.NewDistTable()
		tab.BuildPAA(paa)
		if got, want := tab.MinDistWord(word), s.MinDistPAAWordNaive(paa, word); got != want {
			t.Fatalf("table %v != naive %v (cardBits %d)", got, want, cb)
		}
		if got, want := tab.MinDistWord(word), s.MinDistPAAWord(paa, word); got != want {
			t.Fatalf("table %v != scalar %v (cardBits %d)", got, want, cb)
		}
		if got, want := tab.MinDistPrefix(symbols, bits), s.MinDistPAAPrefix(paa, symbols, bits); got != want {
			t.Fatalf("prefix table %v != scalar %v (cardBits %d, bits %v)", got, want, cb, bits)
		}
		k := int(prefixBits) % (w + 1)
		key := (int(symA)<<8 | int(symB)) & (1<<k - 1)
		rootSyms, rootBits := rootPrefix(w, k, key)
		if got, want := tab.RootBound(key, k), s.MinDistPAAPrefix(paa, rootSyms, rootBits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("RootBound(%#x, %d) %v != scalar %v (w %d)", key, k, got, want, w)
		}
		// The envelope [min(a,b), max(a,b)] on every segment.
		uMax, lMin := make([]float64, w), make([]float64, w)
		for i := range uMax {
			uMax[i], lMin[i] = max(a, b), min(a, b)
		}
		tab.BuildEnvelope(uMax, lMin)
		if got, want := tab.RootBound(key, k), s.MinDistEnvelopePrefix(uMax, lMin, rootSyms, rootBits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("envelope RootBound(%#x, %d) %v != scalar %v (w %d)", key, k, got, want, w)
		}
	})
}

// FuzzSymbolRegionConsistency checks that quantization and region bounds
// stay consistent for arbitrary float inputs (including extremes).
func FuzzSymbolRegionConsistency(f *testing.F) {
	f.Add(0.0)
	f.Add(1.5)
	f.Add(-1.5)
	f.Add(1e300)
	f.Add(-1e300)
	f.Add(0.001)
	s, err := NewSchema(64, 16, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		sym := s.Symbol(v)
		lo, hi := s.Region(sym, 8)
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("value %v assigned symbol %d whose region is [%v,%v]", v, sym, lo, hi)
		}
		// Every coarser prefix region must also contain v.
		for b := uint8(7); b >= 1; b-- {
			plo, phi := s.Region(sym>>(8-b), b)
			if v < plo-1e-12 || v > phi+1e-12 {
				t.Fatalf("value %v escapes %d-bit region [%v,%v]", v, b, plo, phi)
			}
		}
	})
}

// FuzzMinDistNonNegative checks the lower bound is always finite and
// non-negative for arbitrary PAA vectors.
func FuzzMinDistNonNegative(f *testing.F) {
	f.Add(float64(0), float64(0), uint8(0), uint8(255))
	f.Add(float64(3.7), float64(-2.2), uint8(17), uint8(200))
	s, err := NewSchema(32, 16, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b float64, symA, symB uint8) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			t.Skip()
		}
		paa := make([]float64, 16)
		word := make([]uint8, 16)
		for i := range paa {
			if i%2 == 0 {
				paa[i], word[i] = a, symA
			} else {
				paa[i], word[i] = b, symB
			}
		}
		d := s.MinDistPAAWord(paa, word)
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("MinDistPAAWord = %v for paa=(%v,%v) syms=(%d,%d)", d, a, b, symA, symB)
		}
		if naive := s.MinDistPAAWordNaive(paa, word); math.Abs(naive-d) > 1e-9*(1+d) {
			t.Fatalf("kernel disagreement: %v vs %v", d, naive)
		}
	})
}
