package engine

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// gate is the engine's admission gate: PoolWorkers worker tokens, handed
// out first come, first served. A query waits for the tokens its width
// needs (see Engine.run); a waiter at the head of the queue blocks every
// later one, so a wide query is never overtaken by narrow ones arriving
// after it. Tokens nobody waits for can be borrowed, one helper worker
// each, and a helper gives its token back as soon as somebody waits.
type gate struct {
	mu     sync.Mutex
	free   int          // tokens neither held nor borrowed
	queue  []*waiter    // FIFO
	queued atomic.Int32 // len(queue), read by helpers between pops
}

// waiter is one query queued at the gate; ready closes once it holds its
// tokens.
type waiter struct {
	need  int
	ready chan struct{}
}

// acquire takes need tokens for req, waiting in the queue while any query
// waits already or fewer are free; a query that needs none never waits. It
// reports whether it took them: false when the deadline of a ModeDeadline
// request passed while waiting, context.Canceled when req.Cancel closed
// first. A query that leaves the queue holds no token.
func (g *gate) acquire(need int, req core.Request) (bool, error) {
	g.mu.Lock()
	if g.free >= need && (len(g.queue) == 0 || need == 0) {
		g.free -= need
		g.mu.Unlock()
		return true, nil
	}
	w := &waiter{need: need, ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.queued.Add(1)
	g.mu.Unlock()

	var expired <-chan time.Time
	if req.Mode == core.ModeDeadline && !req.Deadline.IsZero() {
		t := time.NewTimer(time.Until(req.Deadline))
		defer t.Stop()
		expired = t.C
	}
	var err error
	select { // a nil req.Cancel or expired never fires
	case <-w.ready:
		return true, nil
	case <-req.Cancel:
		err = context.Canceled
	case <-expired:
	}
	back := need // granted while leaving: hand the tokens on
	g.mu.Lock()
	if i := slices.Index(g.queue, w); i >= 0 {
		g.queue = slices.Delete(g.queue, i, i+1)
		g.queued.Add(-1)
		back = 0
	}
	g.mu.Unlock()
	g.release(back) // its leaving may unblock the queue behind it
	return false, err
}

// borrow takes up to max free tokens, none while a query waits, and
// reports how many it took. Each goes back through release.
func (g *gate) borrow(max int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.queue) > 0 {
		return 0
	}
	n := min(max, g.free)
	g.free -= n
	return n
}

// release returns n tokens and admits the waiters they now cover, in
// queue order.
func (g *gate) release(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.free += n
	for len(g.queue) > 0 && g.free >= g.queue[0].need {
		g.free -= g.queue[0].need
		close(g.queue[0].ready)
		g.queue = slices.Delete(g.queue, 0, 1)
		g.queued.Add(-1)
	}
}

// waiting reports whether a query waits for tokens: a helper's cue to
// give its own back.
func (g *gate) waiting() bool { return g.queued.Load() > 0 }

// exhausted reports whether no token is free.
func (g *gate) exhausted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.free == 0
}
