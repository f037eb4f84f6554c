package core

import (
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/tree"
)

// Restore assembles an Index over data from a tree already built or
// decoded over it (tree.Decode validates a loaded one), skipping the
// construction pipeline: no splits, and PAA transforms and quantization
// only for the sampleSize series of the plan sample, not for the whole
// collection as Build does. The tree fixes opts' shape fields. data must
// hold at least one series, as Build's does: a snapshot member's header
// declares a non-zero count before its tree is decoded.
func Restore(data *series.Collection, tr *tree.Tree, opts Options) *Index {
	opts.Segments, opts.CardBits, opts.LeafCapacity = tr.Schema.Segments, tr.Schema.CardBits, tr.LeafCapacity
	ix := &Index{Data: data, Schema: tr.Schema, Tree: tr, Opts: opts.withDefaults()}
	for l := 0; l < tr.RootCount(); l++ {
		if tr.Root(l) != nil {
			ix.activeRoots = append(ix.activeRoots, int32(l))
		}
	}
	paaBuf := make([]float64, tr.Schema.Segments)
	ix.fillSample(func(pos int, dst []uint8) {
		tr.Schema.WordFromPAA(paa.Transform(data.At(pos), tr.Schema.Segments, paaBuf), dst)
	})
	return ix
}
