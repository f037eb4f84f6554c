package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// fillGate saturates the admission gate directly (same-package access) so
// the overload branches of Do run deterministically instead of depending
// on racing real queries. The returned func releases the held slots.
func fillGate(e *Engine) func() {
	n := cap(e.admit)
	for i := 0; i < n; i++ {
		e.admit <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-e.admit
		}
	}
}

// TestDegradeEpsilonRewritesUnderOverload: with the gate provably full
// and DegradeEpsilon set, an exact request is rewritten to ε-bounded —
// the answers honor the (1+ε) guarantee and the proof machinery reports
// inexactness when inflation pruned a potential winner.
func TestDegradeEpsilonRewritesUnderOverload(t *testing.T) {
	ix, qs := testIndex(t)
	const eps = 4.0
	e := serve(ix, Options{PoolWorkers: 4, MaxConcurrent: 1, DegradeEpsilon: eps})
	defer e.Close()

	release := fillGate(e.Engine)
	const nq = 8
	results := make([]core.Result, nq)
	errs := make([]error, nq)
	started := make(chan struct{}, nq)
	done := make(chan struct{}, nq)
	for i := 0; i < nq; i++ {
		go func(i int) {
			started <- struct{}{}
			results[i], errs[i] = e.do(core.Request{Query: qs.At(i)})
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < nq; i++ {
		<-started
	}
	// Every goroutine is past Do's entry; give them time to observe the
	// full gate and block in admitQoS, then let them through one by one.
	time.Sleep(50 * time.Millisecond)
	release()
	for i := 0; i < nq; i++ {
		<-done
	}

	sawDegraded := false
	for i := 0; i < nq; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		exact, err := brute1(ix, qs.At(i))
		if err != nil {
			t.Fatal(err)
		}
		got, want := math.Sqrt(results[i].Matches[0].Dist), math.Sqrt(exact.Dist)
		if got > (1+eps)*want+1e-6 {
			t.Fatalf("query %d: degraded answer %v violates (1+ε)×%v", i, got, want)
		}
		if got < want-1e-9 {
			t.Fatalf("query %d: degraded answer %v better than exact %v", i, got, want)
		}
		if !results[i].Exact {
			sawDegraded = true
			if results[i].EpsilonBound > eps {
				t.Fatalf("query %d: proven bound %v exceeds degradation ε", i, results[i].EpsilonBound)
			}
		}
	}
	if !sawDegraded {
		t.Error("no query reported an inexact degraded answer; rewrite apparently never applied")
	}
}

// TestDegradeEpsilonIdleStaysExact: the rewrite requires a full gate — an
// idle engine with DegradeEpsilon configured still answers exactly.
func TestDegradeEpsilonIdleStaysExact(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 4, MaxConcurrent: 2, DegradeEpsilon: 0.5})
	defer e.Close()
	for i := 0; i < 4; i++ {
		res, err := e.do(core.Request{Query: qs.At(i)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := brute1(ix, qs.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Matches[0] != want {
			t.Fatalf("query %d: idle engine degraded: %+v, want exact %+v", i, res, want)
		}
	}
}

// TestDeadlineExpiryDuringAdmission: a deadline request stuck behind a
// full gate past its deadline bypasses the gate with a single bounded
// approximate step and reports the answer as inexact.
func TestDeadlineExpiryDuringAdmission(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 4, MaxConcurrent: 1})
	defer e.Close()

	release := fillGate(e.Engine)
	defer release()
	start := time.Now()
	res, err := e.do(core.Request{
		Query:    qs.At(0),
		Mode:     core.ModeDeadline,
		Deadline: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("expired admission returned after %v", elapsed)
	}
	if res.Exact || !math.IsInf(res.EpsilonBound, 1) {
		t.Fatalf("deadline-expired admission must report an unproven answer, got %+v", res)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("deadline-expired admission returned %d matches, want the approximate best", len(res.Matches))
	}
	want, err := brute1(ix, qs.At(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches[0].Dist < want.Dist-1e-9 {
		t.Fatalf("approximate fallback %v better than exact %v", res.Matches[0].Dist, want.Dist)
	}
}

// TestCancelDuringAdmission: cancellation while queued at the gate
// returns context.Canceled without running any search.
func TestCancelDuringAdmission(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 4, MaxConcurrent: 1})
	defer e.Close()

	release := fillGate(e.Engine)
	defer release()
	canceled := make(chan struct{})
	close(canceled)
	_, err := e.do(core.Request{Query: qs.At(0), Cancel: canceled})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled admission returned %v, want context.Canceled", err)
	}
}
