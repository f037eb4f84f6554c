package isax

import (
	"math"
	"math/rand"
	"testing"
)

// randomPrefix derives a random variable-cardinality prefix consistent
// with a full-precision word: per segment, a random bit count in
// [0, CardBits] and the word symbol truncated to it.
func randomPrefix(rng *rand.Rand, s *Schema, word []uint8) (symbols, bits []uint8) {
	symbols = make([]uint8, s.Segments)
	bits = make([]uint8, s.Segments)
	for i := 0; i < s.Segments; i++ {
		b := uint8(rng.Intn(s.CardBits + 1))
		bits[i] = b
		if b > 0 {
			symbols[i] = word[i] >> (uint8(s.CardBits) - b)
		}
	}
	return symbols, bits
}

// rootPrefix returns the symbols and bits of k-bit root key key's child as
// tree.EnsureRoot builds them: one bit on each of the first k segments,
// segment 0 the key's high bit, and none on the rest.
func rootPrefix(w, k, key int) (symbols, bits []uint8) {
	symbols, bits = make([]uint8, w), make([]uint8, w)
	for i := range k {
		symbols[i], bits[i] = uint8(key>>(k-1-i)&1), 1
	}
	return symbols, bits
}

// TestDistTableMatchesScalarKernels pins the tentpole equivalence: the
// table-based lower bounds are bitwise identical to the scalar kernels
// (full words, variable-cardinality prefixes, root children keyed on any
// k ≤ w segments, and the DTW envelope variants) across random schemas and
// queries, every w from 1 to 16 among them.
func TestDistTableMatchesScalarKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := []struct{ n, w, bits int }{
		{64, 16, 8}, {32, 8, 8}, {24, 4, 5}, {16, 2, 3}, {8, 1, 1}, {48, 16, 2},
	}
	for w := 1; w <= MaxSegments; w++ {
		cfgs = append(cfgs, struct{ n, w, bits int }{4 * w, w, 1 + w%MaxCardBits})
	}
	for _, cfg := range cfgs {
		s, err := NewSchema(cfg.n, cfg.w, cfg.bits)
		if err != nil {
			t.Fatal(err)
		}
		tab := s.NewDistTable()
		paa := make([]float64, s.Segments)
		uMax := make([]float64, s.Segments)
		lMin := make([]float64, s.Segments)
		word := make([]uint8, s.Segments)
		for trial := 0; trial < 200; trial++ {
			for i := range paa {
				paa[i] = rng.NormFloat64() * 2
				spread := math.Abs(rng.NormFloat64())
				uMax[i] = paa[i] + spread
				lMin[i] = paa[i] - spread
				word[i] = uint8(rng.Intn(s.Cardinality()))
			}
			symbols, bits := randomPrefix(rng, s, word)
			k := rng.Intn(s.Segments + 1)
			key := rng.Intn(1 << k)
			rootSyms, rootBits := rootPrefix(s.Segments, k, key)

			tab.BuildPAA(paa)
			if got, want := tab.MinDistWord(word), s.MinDistPAAWord(paa, word); got != want {
				t.Fatalf("%+v: MinDistWord = %v, scalar = %v", cfg, got, want)
			}
			if got, want := tab.MinDistWord(word), s.MinDistPAAWordNaive(paa, word); got != want {
				t.Fatalf("%+v: MinDistWord = %v, naive = %v", cfg, got, want)
			}
			if got, want := tab.MinDistPrefix(symbols, bits), s.MinDistPAAPrefix(paa, symbols, bits); got != want {
				t.Fatalf("%+v: MinDistPrefix = %v, scalar = %v (bits %v)", cfg, got, want, bits)
			}
			if got, want := tab.RootBound(key, k), s.MinDistPAAPrefix(paa, rootSyms, rootBits); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: RootBound(%#x, %d) = %v, scalar = %v", cfg, key, k, got, want)
			}
			// Row + Scale reproduce MinDistWord (the segment-major
			// leaf-scan decomposition).
			var sum float64
			for seg := 0; seg < s.Segments; seg++ {
				sum += tab.Row(seg)[word[seg]]
			}
			if got, want := sum*tab.Scale(), tab.MinDistWord(word); got != want {
				t.Fatalf("%+v: Row/Scale sum = %v, MinDistWord = %v", cfg, got, want)
			}

			// The same table rebuilt from an envelope matches the
			// envelope kernels (BuildEnvelope requires lMin <= uMax).
			tab.BuildEnvelope(uMax, lMin)
			if got, want := tab.MinDistWord(word), s.MinDistEnvelopeWord(uMax, lMin, word); got != want {
				t.Fatalf("%+v: envelope MinDistWord = %v, scalar = %v", cfg, got, want)
			}
			if got, want := tab.MinDistPrefix(symbols, bits), s.MinDistEnvelopePrefix(uMax, lMin, symbols, bits); got != want {
				t.Fatalf("%+v: envelope MinDistPrefix = %v, scalar = %v (bits %v)", cfg, got, want, bits)
			}
			if got, want := tab.RootBound(key, k), s.MinDistEnvelopePrefix(uMax, lMin, rootSyms, rootBits); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: envelope RootBound(%#x, %d) = %v, scalar = %v", cfg, key, k, got, want)
			}
		}
	}
}

// TestDistTableReuse checks that rebuilding a table for a new query fully
// overwrites the previous query's cells (the engine pools tables across
// queries).
func TestDistTableReuse(t *testing.T) {
	s, err := NewSchema(64, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tab := s.NewDistTable()
	paaA := make([]float64, s.Segments)
	paaB := make([]float64, s.Segments)
	word := make([]uint8, s.Segments)
	for i := range paaA {
		paaA[i] = rng.NormFloat64() * 3
		paaB[i] = rng.NormFloat64() * 3
		word[i] = uint8(rng.Intn(256))
	}
	tab.BuildPAA(paaA)
	tab.BuildPAA(paaB)
	if got, want := tab.MinDistWord(word), s.MinDistPAAWord(paaB, word); got != want {
		t.Fatalf("rebuilt table returns %v, want %v", got, want)
	}
}

// BenchmarkMinDist compares the per-candidate lower-bound kernels: the
// branchy scalar region math vs. one table lookup per segment. The table
// build cost is amortized over a whole query and excluded here (it is
// measured separately by the build sub-benchmark).
func BenchmarkMinDist(b *testing.B) {
	s, err := NewSchema(256, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	paa := make([]float64, s.Segments)
	for i := range paa {
		paa[i] = rng.NormFloat64()
	}
	const words = 2048
	flat := make([]uint8, words*s.Segments)
	for i := range flat {
		flat[i] = uint8(rng.Intn(256))
	}
	tab := s.NewDistTable()
	tab.BuildPAA(paa)
	var sink float64

	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := flat[(i%words)*s.Segments:]
			sink += s.MinDistPAAWord(paa, w[:s.Segments])
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := flat[(i%words)*s.Segments:]
			sink += tab.MinDistWord(w[:s.Segments])
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.BuildPAA(paa)
		}
	})
	_ = sink
}
