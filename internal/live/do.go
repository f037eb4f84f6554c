package live

import (
	"repro/internal/core"
	"repro/internal/engine"
)

// Do serves one quality-of-service request over the union of the immutable
// generation and the delta — the index's only query method. It loads ONE
// view and hands it to the engine, which validates the request, admits it
// and searches the generation's shards and the delta's chunks as members
// of one fan-out: one shared collector, one QoS state, every unit of work
// on the pool. The delta is always scanned exactly — it is small by
// construction, so even approximate and deadline requests afford it — and
// with no generation yet that scan IS the whole search, so the answer is
// exact whatever the requested mode.
func (ix *Index) Do(req core.Request) (core.Result, error) {
	v := ix.view.Load()
	chunks, err := v.deltaChunks()
	if err != nil {
		return core.Result{}, err
	}
	if v.base == nil && len(chunks) == 0 {
		return core.Result{}, ErrEmpty
	}
	return ix.eng.Do(engine.View{Base: v.base, Delta: chunks}, req)
}
