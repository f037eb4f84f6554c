package flagged

import "sync/atomic"

type generation struct{ n int }

func mutate(p *atomic.Pointer[generation]) {
	p.Load().n = 1
}
