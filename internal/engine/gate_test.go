package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
)

// waitQueued returns once n queries wait at g.
func waitQueued(t *testing.T, g *gate, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); g.queued.Load() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d queries queued, want %d", g.queued.Load(), n)
		}
	}
}

// narrow reports whether the gate sizes req on the one-shard sx as narrow.
func narrow(sx *shard.Index, req core.Request) bool {
	opt := core.SearchOptions{Shared: core.NewCollector(req.K), QoS: req.NewQoS()}
	return sx.Shard(0).NewRun(req, core.NewQueryState(), opt).Narrow()
}

// idle fails unless g holds all its tokens free and nobody waits.
func idle(t *testing.T, g *gate, tokens int, after string) {
	t.Helper()
	g.mu.Lock()
	free, queued := g.free, len(g.queue)
	g.mu.Unlock()
	if free != tokens || queued != 0 || g.waiting() {
		t.Fatalf("after %s: %d tokens free and %d queued, want %d and 0", after, free, queued, tokens)
	}
}

// TestGateFIFO: a wide waiter queued behind a running narrow query is not
// overtaken — by a narrow arrival, though a token it could use is free, or
// by a borrow — and is admitted first, the arrival after it.
func TestGateFIFO(t *testing.T) {
	g := &gate{free: 2}
	// The running narrow query: its own token, and one borrowed.
	if ok, err := g.acquire(1, core.Request{}); !ok || err != nil {
		t.Fatal("an idle gate refused a token")
	}
	if n := g.borrow(1); n != 1 {
		t.Fatalf("borrowed %d tokens of an idle gate, want 1", n)
	}
	admitted := make(chan string, 2)
	arrive := func(name string, need int) {
		go func() {
			if ok, err := g.acquire(need, core.Request{}); !ok || err != nil {
				t.Errorf("%s: admitted %v, err %v", name, ok, err)
			}
			admitted <- name
		}()
	}
	arrive("wide", 2)
	waitQueued(t, g, 1)
	g.release(1) // the helper leaves for the waiter
	if n := g.borrow(1); n != 0 {
		t.Fatalf("borrowed %d tokens past a waiter", n)
	}
	arrive("narrow", 1)
	waitQueued(t, g, 2)
	select {
	case who := <-admitted:
		t.Fatalf("%s admitted with one token free behind a wide waiter", who)
	case <-time.After(50 * time.Millisecond):
	}
	g.release(1) // the narrow query ends
	if who := <-admitted; who != "wide" {
		t.Fatalf("%s admitted first, want the wide waiter", who)
	}
	g.release(2)
	if who := <-admitted; who != "narrow" {
		t.Fatalf("%s admitted second, want the narrow arrival", who)
	}
	g.release(1)
	idle(t, g, 2, "every query ended")
}

// TestGateWaiterLeavesNoToken: a waiter that is cancelled, whose deadline
// passes, or that is granted its tokens in the instant it leaves, leaves
// the gate with every token free — and a wide waiter leaving the head of
// the queue admits the narrow one behind it.
func TestGateWaiterLeavesNoToken(t *testing.T) {
	const tokens = 2
	g := &gate{free: tokens}
	fill := func() {
		if ok, _ := g.acquire(tokens, core.Request{}); !ok {
			t.Fatal("the gate is not idle")
		}
	}

	fill()
	cancelled := make(chan struct{})
	close(cancelled)
	if ok, err := g.acquire(1, core.Request{Cancel: cancelled}); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: admitted %v, err %v", ok, err)
	}
	g.release(tokens)
	idle(t, g, tokens, "a cancelled wait")

	fill()
	if ok, err := g.acquire(1, core.Request{Mode: core.ModeDeadline, Deadline: time.Now().Add(10 * time.Millisecond)}); ok || err != nil {
		t.Fatalf("expired waiter: admitted %v, err %v", ok, err)
	}
	g.release(tokens)
	idle(t, g, tokens, "an expired wait")

	if ok, _ := g.acquire(1, core.Request{}); !ok {
		t.Fatal("an idle gate refused a token")
	}
	leave := make(chan struct{})
	wideErr, narrowErr := make(chan error, 1), make(chan error, 1)
	go func() { _, err := g.acquire(tokens, core.Request{Cancel: leave}); wideErr <- err }()
	waitQueued(t, g, 1)
	go func() { _, err := g.acquire(1, core.Request{}); narrowErr <- err }()
	waitQueued(t, g, 2)
	close(leave)
	if err := <-wideErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("the wide waiter left with %v, want context.Canceled", err)
	}
	if err := <-narrowErr; err != nil {
		t.Fatalf("the narrow waiter behind it: %v", err)
	}
	g.release(1)
	g.release(1)
	idle(t, g, tokens, "the head waiter left")

	for i := 0; i < 200; i++ {
		fill()
		cancel := make(chan struct{})
		got := make(chan bool, 1)
		go func() { ok, _ := g.acquire(tokens, core.Request{Cancel: cancel}); got <- ok }()
		waitQueued(t, g, 1)
		// The waiter is cancelled, then granted the filler's tokens by
		// hand before it can take the lock: it leaves holding them, or
		// takes them, whichever its select picked.
		g.mu.Lock()
		close(cancel)
		close(g.queue[0].ready)
		g.queue = g.queue[:0]
		g.queued.Store(0)
		g.mu.Unlock()
		if <-got {
			g.release(tokens)
		}
		idle(t, g, tokens, "a grant racing a cancellation")
	}
}

// TestGateHelperPanicReturnsToken: whichever unit of a narrow query
// panics — its preparation, or the insert or drain unit of its worker or
// its helper — the query fails alone, every token comes back, and the
// next query is admitted and answers exactly.
func TestGateHelperPanicReturnsToken(t *testing.T) {
	ix, qs := testIndex(t)
	t.Cleanup(fault.DisarmAll)
	e := serve(ix, Options{PoolWorkers: 2})
	defer e.Close()
	q := qs.At(0)
	if !narrow(ix, core.Request{Query: q}) {
		t.Fatal("the query is not narrow")
	}
	want, err := brute1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e.do(core.Request{Query: q}); err != nil || res.Tally.Workers != 2 {
		t.Fatalf("the lone narrow query ran on %d workers (%v), want its own and a helper", res.Tally.Workers, err)
	}
	// Five units: the preparation, then an insert and a drain unit on each
	// of the two workers.
	for after := 0; after < 5; after++ {
		if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic, After: after}); err != nil {
			t.Fatal(err)
		}
		if _, err := pool1(e, q); !errors.Is(err, ErrQueryPanicked) {
			t.Fatalf("unit %d poisoned: err = %v, want ErrQueryPanicked", after, err)
		}
		fault.DisarmAll()
		if free := freeTokens(e.Engine); free != 2 {
			t.Fatalf("unit %d poisoned: %d tokens free after the query, want 2", after, free)
		}
		if got, err := pool1(e, q); err != nil || got != want {
			t.Fatalf("unit %d poisoned: the next query answered %+v (%v), want %+v", after, got, err, want)
		}
	}
}

// TestNarrowWidth: a query's width shows in its tally. On a gate of two
// tokens a lone narrow query runs on its worker and a helper and yields
// nothing; a scan-plan query holds both tokens; and two narrow queries
// racing each other see helpers leave for the waiter, every answer still
// exact.
func TestNarrowWidth(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 2})
	defer e.Close()

	var narrows []int // the queries the gate sizes narrow
	for i := 0; i < qs.Count(); i++ {
		if narrow(ix, core.Request{Query: qs.At(i)}) {
			narrows = append(narrows, i)
		}
	}
	if len(narrows) < 2 {
		t.Fatalf("%d narrow queries, want two at least", len(narrows))
	}
	res, err := e.do(core.Request{Query: qs.At(narrows[0])})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Workers != 2 || res.Tally.Yields != 0 {
		t.Fatalf("lone narrow query: %d workers, %d yields, want 2 and 0", res.Tally.Workers, res.Tally.Yields)
	}
	res, err = e.do(core.Request{Query: oodQuery(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.ScanPlans != 1 || res.Tally.Workers != 2 {
		t.Fatalf("OOD query: %d scan plans on %d workers, want 1 on 2", res.Tally.ScanPlans, res.Tally.Workers)
	}

	want := make([]core.Match, qs.Count())
	for i := range want {
		if want[i], err = brute1(ix, qs.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu     sync.Mutex
		yields int64
		wg     sync.WaitGroup
	)
	stop := time.Now().Add(10 * time.Second)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				mu.Lock()
				seen := yields
				mu.Unlock()
				if seen > 0 || time.Now().After(stop) {
					return
				}
				qi := narrows[i%len(narrows)]
				res, err := e.do(core.Request{Query: qs.At(qi)})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Matches[0] != want[qi] {
					t.Errorf("query %d: %+v, want %+v", qi, res.Matches[0], want[qi])
					return
				}
				mu.Lock()
				yields += res.Tally.Yields
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if yields == 0 {
		t.Fatal("two racing narrow queries on two tokens never saw a helper yield")
	}
	if free := freeTokens(e.Engine); free != 2 {
		t.Fatalf("%d tokens free after the race, want 2", free)
	}
}

// TestNarrowAndWideMatchScan: narrow and wide queries (1-NN and 5-NN on
// either plan, and DTW) racing on one gate of two tokens, over one shard
// and over two, answer bitwise as the brute-force scan. The collection
// has no two series at exactly the same distance from any of these
// queries, so positions must match too.
func TestNarrowAndWideMatchScan(t *testing.T) {
	ix, qs := testIndex(t)
	two, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	data := ix.Shard(0).Data
	var reqs []core.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, core.Request{Query: qs.At(i)}, core.Request{Query: qs.At(i + 6), K: 5})
	}
	for seed := int64(1); seed <= 3; seed++ {
		reqs = append(reqs, core.Request{Query: oodQuery(seed)})
	}
	// A DTW run is narrow or wide by its envelope's sampled share.
	dtwNarrow := core.Request{Query: qs.At(12), DTW: true, Window: 6}
	dtwWide := core.Request{Query: qs.At(13), DTW: true, Window: 6}
	if !narrow(ix, dtwNarrow) || narrow(ix, dtwWide) {
		t.Fatalf("DTW requests narrow=%v and %v, want true and false", narrow(ix, dtwNarrow), narrow(ix, dtwWide))
	}
	reqs = append(reqs, dtwNarrow, dtwWide)
	want := make([]core.Result, len(reqs))
	narrows := 0
	for i, req := range reqs {
		want[i] = brute(t, data, req)
		if narrow(ix, req) {
			narrows++
		}
	}
	if narrows == 0 || narrows == len(reqs) {
		t.Fatalf("%d of %d requests narrow, want both kinds", narrows, len(reqs))
	}

	for _, sx := range []*shard.Index{ix, two} {
		e := serve(sx, Options{PoolWorkers: 2})
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range 2 * len(reqs) {
					i := (r + 5*c) % len(reqs)
					res, err := e.do(reqs[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !res.Exact || len(res.Matches) != len(want[i].Matches) {
						t.Errorf("S=%d request %d: %+v, want %+v", sx.NumShards(), i, res, want[i])
						return
					}
					for j, m := range res.Matches {
						if m != want[i].Matches[j] {
							t.Errorf("S=%d request %d match %d: %+v, brute force %+v", sx.NumShards(), i, j, m, want[i].Matches[j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		e.Close()
		if free := freeTokens(e.Engine); free != 2 {
			t.Fatalf("S=%d: %d tokens free after the race, want 2", sx.NumShards(), free)
		}
	}
}
