package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestStopAtQueuePop: a cancellation that lands between the insert and the
// drain phases stops the run at its first queue pop — the stop site a
// pre-cancelled run (checkPlans) never reaches, since it stops at the root
// or block claims. The drain then measures nothing, and the answer is the
// best-so-far flagged inexact with no proven bound. A run cancelled only
// after it completed stays exact.
func TestStopAtQueuePop(t *testing.T) {
	const workers = 3
	ix := buildTestIndex(t, dataset.RandomWalk, 2000, 64, smallOpts())
	for qi, q := range noisyTier(10).queries(ix.Data, 4, 17) {
		want := kernelKNN(ix.Data, q, 1)[0]

		// run prepares the query on the tree plan, runs every worker's
		// insert phase, closes cancel when early, runs every worker's
		// drain phase, and closes cancel when not early.
		run := func(early bool) (Result, stats.Snapshot, stats.Snapshot) {
			t.Helper()
			var ctrs stats.Counters
			cancel := make(chan struct{})
			req := Request{Query: q, Cancel: cancel, Counters: &ctrs}
			opt := SearchOptions{Shared: NewCollector(1), QoS: req.NewQoS()}
			r, err := newRun(ix, req, opt)
			if err != nil {
				t.Fatal(err)
			}
			forcePlan(r, false)
			for pid := 0; pid < workers; pid++ {
				r.InsertPhase(pid)
			}
			inserted := ctrs.Snapshot()
			if early {
				close(cancel)
			}
			for pid := 0; pid < workers; pid++ {
				r.DrainPhase(pid)
			}
			if !early {
				close(cancel)
			}
			return opt.QoS.Finish(opt.Shared.Matches()), inserted, ctrs.Snapshot()
		}

		res, inserted, drained := run(true)
		if inserted.LeavesInserted == 0 {
			t.Fatalf("query %d: no leaf reached the queues, so no pop was stopped", qi)
		}
		if res.Exact || !math.IsInf(res.EpsilonBound, 1) {
			t.Fatalf("query %d: stopped at the pop, got exact=%v bound=%v, want inexact and +Inf",
				qi, res.Exact, res.EpsilonBound)
		}
		if len(res.Matches) != 1 || res.Matches[0].Dist < want.Dist {
			t.Fatalf("query %d: stopped answer %+v, brute force %+v", qi, res.Matches, want)
		}
		if drained.RealDistCalcs != inserted.RealDistCalcs || drained.LeavesPruned != 0 {
			t.Fatalf("query %d: the drain worked after the stop: %+v, inserted %+v", qi, drained, inserted)
		}

		res, _, _ = run(false)
		if !res.Exact || res.EpsilonBound != 0 || len(res.Matches) != 1 || res.Matches[0] != want {
			t.Fatalf("query %d: cancelled after completion, got %+v, brute force %+v", qi, res, want)
		}
	}
}
