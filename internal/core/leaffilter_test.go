package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isax"
	"repro/internal/tree"
)

// leafMaskRef is leafMaskVBMI's reference: the saturated sum of an entry's
// quantized cells, segment by segment, compared against thresh.
func leafMaskRef(words []uint8, stride, n, w int, qtab []uint8, thresh int) []uint64 {
	mask := make([]uint64, (n+63)/64)
	for e := 0; e < n; e++ {
		sum := 0
		for seg := 0; seg < w; seg++ {
			sum = min(255, sum+int(qtab[seg*256+int(words[seg*stride+e])]))
		}
		if sum < thresh {
			mask[e/64] |= 1 << (e % 64)
		}
	}
	return mask
}

// filterArms runs fn once per filter implementation: the VBMI kernel (when
// the CPU has it) and the exact Go fallback, with the dispatch forced.
func filterArms[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, fn func(T)) {
	saved := useVBMI
	defer func() { useVBMI = saved }()
	for _, arm := range []struct {
		name string
		vbmi bool
	}{{"avx512vbmi", true}, {"go", false}} {
		t.Run(arm.name, func(t T) {
			if arm.vbmi && !saved {
				t.Skip("no AVX-512 VBMI")
			}
			useVBMI = arm.vbmi
			fn(t)
		})
	}
}

// randomLeaf returns an n-entry leaf of random w-symbol words below card,
// with a column stride above n.
func randomLeaf(rng *rand.Rand, n, w, card int) *tree.Node {
	stride := n + 1 + rng.Intn(70)
	leaf := &tree.Node{Words: make([]uint8, w*stride), Stride: stride, Positions: make([]int32, n)}
	for i := range leaf.Words {
		leaf.Words[i] = uint8(rng.Intn(card))
	}
	return leaf
}

// TestLeafFilterMatchesAccumulate demands that the filter keep exactly the
// candidates, the candidate bounds and the ε witness of accumulate plus
// the exact comparison, for Euclidean and DTW-envelope tables of every
// schema shape, at leaf sizes around the kernel's 64-entry blocks, and at
// limits on, just above and just below an entry's bound, at 0 and at +Inf
// (which must take the exact filter).
// Each limit is asked once on a fresh scratch and once on a scratch whose
// table was quantized for a larger limit, as a drain phase reuses it.
func TestLeafFilterMatchesAccumulate(t *testing.T) {
	filterArms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		sizes := []int{1, 2, 31, 63, 64, 65, 100, 127, 128, 129, 200}
		cases := 0
		for w := 1; w <= isax.MaxSegments; w++ {
			for cardBits := 1; cardBits <= isax.MaxCardBits; cardBits++ {
				// Scales n/w that are not powers of two round.
				schema, err := isax.NewSchema(w*(1+rng.Intn(16)), w, cardBits)
				if err != nil {
					t.Fatal(err)
				}
				tab := schema.NewDistTable()
				for _, dtw := range []bool{false, true} {
					upper, lower := make([]float64, w), make([]float64, w)
					for i := range upper {
						upper[i] = rng.NormFloat64()
						lower[i] = upper[i]
						if dtw {
							lower[i] -= rng.Float64()
						}
					}
					tab.BuildEnvelope(upper, lower)
					n := sizes[rng.Intn(len(sizes))]
					leaf := randomLeaf(rng, n, w, 1<<cardBits)
					var ref leafScratch
					exact := slices.Clone(ref.accumulate(leaf, tab, w))
					for i := range exact {
						exact[i] *= tab.Scale()
					}
					limits := []float64{exact[rng.Intn(n)] * 1.05, 0, math.Inf(1)}
					for range 4 {
						tie := exact[rng.Intn(n)]
						limits = append(limits, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
					}
					for _, limit := range limits {
						for _, eps := range []float64{0, 0.2} {
							name := fmt.Sprintf("w=%d bits=%d dtw=%v n=%d limit=%v ε=%v", w, cardBits, dtw, n, limit, eps)
							checkFilter(t, name, leaf, tab, exact, limit, eps, 0)
							checkFilter(t, name+" reused", leaf, tab, exact, limit, eps, limit/0.95)
							cases++
						}
					}
				}
			}
		}
		t.Logf("%d cases", cases)
	})
}

// checkFilter runs the filter at limit on a scratch whose table was first
// quantized for warm (0: none) and compares it with exact, the entries'
// accumulated bounds.
func checkFilter(t *testing.T, name string, leaf *tree.Node, tab *isax.DistTable, exact []float64,
	limit, eps float64, warm float64) {
	t.Helper()
	req := Request{Mode: ModeEpsilon, Epsilon: eps}
	gotQoS, wantQoS := req.NewQoS(), req.NewQoS()
	var s leafScratch
	if warm > 0 {
		s.quantized(tab, warm)
	}
	lbs, cand := s.filter(leaf, tab, limit, gotQoS)
	if s.qlimit != 0 && (limit == 0 || math.IsInf(limit, 1)) {
		t.Fatalf("%s: quantized for limit %v", name, limit)
	}
	var want []int32
	for e, lb := range exact {
		if !wantQoS.prunes(lb, limit) {
			want = append(want, int32(e))
		}
	}
	if !slices.Equal(cand, want) {
		t.Fatalf("%s: candidates %v, accumulate %v", name, cand, want)
	}
	for _, e := range cand {
		if math.Float64bits(lbs[e]) != math.Float64bits(exact[e]) {
			t.Fatalf("%s: entry %d bound %v, accumulate %v", name, e, lbs[e], exact[e])
		}
	}
	if got, want := gotQoS.epsPruned.Load(), wantQoS.epsPruned.Load(); got != want {
		t.Fatalf("%s: witness bits %#x, accumulate %#x", name, got, want)
	}
}

// FuzzLeafFilterMatchesReference pins the kernel's mask to leafMaskRef for
// any columns, quantized table and threshold.
func FuzzLeafFilterMatchesReference(f *testing.F) {
	if !useVBMI {
		f.Skip("no AVX-512 VBMI")
	}
	f.Add(uint8(1), uint8(1), uint8(0), uint8(250), int64(1))
	f.Add(uint8(200), uint8(16), uint8(9), uint8(250), int64(2))
	f.Add(uint8(64), uint8(8), uint8(0), uint8(255), int64(3))
	f.Add(uint8(65), uint8(3), uint8(63), uint8(1), int64(4))
	f.Fuzz(func(t *testing.T, n, w, pad, thresh uint8, seed int64) {
		nn, ww := 1+int(n)%200, 1+int(w)%isax.MaxSegments
		stride := nn + int(pad)%64
		rng := rand.New(rand.NewSource(seed))
		words := make([]uint8, ww*stride)
		for i := range words {
			words[i] = uint8(rng.Intn(256))
		}
		qtab := make([]uint8, ww*256)
		for i := range qtab {
			qtab[i] = uint8(rng.Intn(int(thresh)/4 + 2))
			if rng.Intn(16) == 0 {
				qtab[i] = uint8(rng.Intn(256))
			}
		}
		got := make([]uint64, (nn+63)/64)
		for i := range got {
			got[i] = rng.Uint64() // every bit must be written
		}
		leafMaskVBMI(&words[0], stride, nn, ww, &qtab[0], int(thresh), &got[0])
		if want := leafMaskRef(words, stride, nn, ww, qtab, int(thresh)); !slices.Equal(got, want) {
			t.Fatalf("n=%d w=%d stride=%d thresh=%d: mask %x, reference %x", nn, ww, stride, thresh, got, want)
		}
	})
}

// BenchmarkLeafFilter times the filter on one 2 000-entry leaf at w = 16
// for limits that let a given share of the entries through the exact
// bound, with the VBMI pre-filter and with the exact filter alone.
func BenchmarkLeafFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	schema, err := isax.NewSchema(128, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	tab := schema.NewDistTable()
	qpaa := make([]float64, 16)
	for i := range qpaa {
		qpaa[i] = rng.NormFloat64()
	}
	tab.BuildPAA(qpaa)
	leaf := randomLeaf(rng, 2000, 16, 256)
	var ref leafScratch
	sorted := slices.Clone(ref.accumulate(leaf, tab, 16))
	slices.Sort(sorted)
	qos := Request{}.NewQoS()
	for _, pct := range []int{2, 10, 25, 50, 60, 75, 99} {
		limit := sorted[len(sorted)*pct/100] * tab.Scale()
		b.Run(fmt.Sprintf("pass=%d%%", pct), func(b *testing.B) {
			filterArms(b, func(b *testing.B) {
				var s leafScratch
				for i := 0; i < b.N; i++ {
					s.filter(leaf, tab, limit, qos)
				}
			})
		})
	}
}
