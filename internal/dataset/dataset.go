// Package dataset provides the workload generators and binary file format
// used by the experiments.
//
// The paper evaluates on (i) synthetic random-walk series — "a random
// number is first drawn from a Gaussian distribution N(0,1), and then at
// each time point a new number is drawn from this distribution and added to
// the value of the last number" — and (ii) two real collections we cannot
// redistribute: Seismic (IRIS waveforms, 100M×256) and SALD (MRI series,
// 200M×128). Per the substitution policy in docs/REPRODUCTION.md we model
// the real datasets with generators that reproduce their relevant property for this
// paper: real data is more self-similar than random walks, so pruning is
// less effective and queries are slower (Figures 14, 16, 17).
//
//   - Seismic-like: superpositions of damped sinusoid bursts over noise,
//     sharing a small dictionary of event shapes across series.
//   - SALD-like: smooth low-frequency Fourier series of length 128 drawn
//     from a small number of latent cluster prototypes.
//
// All generated series are z-normalized, as is standard for similarity
// search (the paper's distance is ED on z-normalized data).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/series"
)

// Kind identifies a generator.
type Kind string

// The three dataset families of the evaluation.
const (
	RandomWalk  Kind = "random"  // the paper's synthetic workload
	SeismicLike Kind = "seismic" // stand-in for the IRIS Seismic collection
	SALDLike    Kind = "sald"    // stand-in for the SALD MRI collection
)

// DefaultLength returns the paper's series length for the dataset family
// (256 points, except SALD which uses 128).
func (k Kind) DefaultLength() int {
	if k == SALDLike {
		return 128
	}
	return 256
}

// Generate produces count z-normalized series of the given length for the
// dataset family, deterministically from seed.
func Generate(kind Kind, count, length int, seed int64) (*series.Collection, error) {
	if count <= 0 {
		return nil, fmt.Errorf("dataset: non-positive count %d", count)
	}
	if length <= 0 {
		return nil, fmt.Errorf("dataset: non-positive length %d", length)
	}
	c, err := series.NewEmptyCollection(count, length)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case RandomWalk:
		for i := 0; i < count; i++ {
			fillRandomWalk(rng, c.At(i))
		}
	case SeismicLike:
		g := newSeismicGen(rng, length)
		for i := 0; i < count; i++ {
			g.fill(rng, c.At(i))
		}
	case SALDLike:
		g := newSALDGen(rng)
		for i := 0; i < count; i++ {
			g.fill(rng, c.At(i))
		}
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q", kind)
	}
	c.ZNormalizeAll()
	return c, nil
}

// Queries generates a query workload for a dataset family. Following the
// paper, random-walk queries come from the same generator; for the
// real-data stand-ins queries are fresh draws from the same generator
// ("we used as queries 100 series out of the datasets, chosen using our
// synthetic series generator" — i.e. same distribution, not present in the
// collection).
func Queries(kind Kind, count, length int, seed int64) (*series.Collection, error) {
	return Generate(kind, count, length, seed)
}

func fillRandomWalk(rng *rand.Rand, dst []float32) {
	v := rng.NormFloat64()
	dst[0] = float32(v)
	for i := 1; i < len(dst); i++ {
		v += rng.NormFloat64()
		dst[i] = float32(v)
	}
}

// seismicGen shares a dictionary of full-length event prototypes (damped
// sinusoid bursts at fixed epicentral offsets) across all series; each
// series is a lightly perturbed prototype. Many series are therefore
// near-identical — the self-similarity that makes pruning harder on real
// seismic data (the paper's Figures 16-17).
type seismicGen struct {
	protos [][]float64 // full-length prototype waveforms
}

const seismicPrototypes = 16

func newSeismicGen(rng *rand.Rand, length int) *seismicGen {
	g := &seismicGen{protos: make([][]float64, seismicPrototypes)}
	for p := range g.protos {
		proto := make([]float64, length)
		events := 1 + rng.Intn(3)
		for e := 0; e < events; e++ {
			freq := 0.2 + rng.Float64()*1.2
			decay := 0.04 + rng.Float64()*0.12
			phase := rng.Float64() * 2 * math.Pi
			amp := 0.5 + rng.Float64()*2
			start := rng.Intn(length)
			for i := start; i < length; i++ {
				t := float64(i - start)
				proto[i] += amp * math.Exp(-decay*t) * math.Sin(freq*t+phase)
			}
		}
		g.protos[p] = proto
	}
	return g
}

func (g *seismicGen) fill(rng *rand.Rand, dst []float32) {
	// Independent low-amplitude microseism background (a gentle random
	// walk): this is what lets the index discriminate series from
	// different stations, while the shared prototype bursts below make
	// same-event series cluster tightly. The balance reproduces real
	// seismic behaviour: pruning works, but worse than on random walks.
	v := 0.0
	for i := range dst {
		v += rng.NormFloat64() * 0.16
		dst[i] = float32(v)
	}
	proto := g.protos[rng.Intn(len(g.protos))]
	scale := 0.85 + rng.Float64()*0.3 // station gain variation
	for i := range dst {
		dst[i] += float32(proto[i]*scale + rng.NormFloat64()*0.05)
	}
}

// saldGen produces smooth series as low-frequency Fourier sums around a
// small set of latent prototypes (MRI-style population structure).
type saldGen struct {
	protoAmp   [][]float64 // per-prototype harmonic amplitudes
	protoPhase [][]float64
}

const (
	saldPrototypes = 16
	saldHarmonics  = 6
)

func newSALDGen(rng *rand.Rand) *saldGen {
	g := &saldGen{
		protoAmp:   make([][]float64, saldPrototypes),
		protoPhase: make([][]float64, saldPrototypes),
	}
	for p := 0; p < saldPrototypes; p++ {
		amp := make([]float64, saldHarmonics)
		phase := make([]float64, saldHarmonics)
		for h := range amp {
			amp[h] = rng.NormFloat64() / float64(h+1)
			phase[h] = rng.Float64() * 2 * math.Pi
		}
		g.protoAmp[p] = amp
		g.protoPhase[p] = phase
	}
	return g
}

func (g *saldGen) fill(rng *rand.Rand, dst []float32) {
	p := rng.Intn(saldPrototypes)
	amp, phase := g.protoAmp[p], g.protoPhase[p]
	n := float64(len(dst))
	// Individual variation: jitter amplitudes and phases slightly.
	for i := range dst {
		t := float64(i) / n
		var v float64
		for h := 0; h < saldHarmonics; h++ {
			v += amp[h] * math.Sin(2*math.Pi*float64(h+1)*t+phase[h])
		}
		dst[i] = float32(v)
	}
	for h := 0; h < saldHarmonics; h++ {
		jAmp := rng.NormFloat64() * 0.08 / float64(h+1)
		jPhase := rng.Float64() * 2 * math.Pi
		for i := range dst {
			t := float64(i) / n
			dst[i] += float32(jAmp * math.Sin(2*math.Pi*float64(h+1)*t+jPhase))
		}
	}
	for i := range dst {
		dst[i] += float32(rng.NormFloat64() * 0.02)
	}
}
