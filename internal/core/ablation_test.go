package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/series"
)

func TestBuildDirectConservesSeries(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 3000, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildDirect(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Series != 3000 {
		t.Fatalf("tree holds %d series, want 3000", st.Series)
	}
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDirectValidation(t *testing.T) {
	if _, err := BuildDirect(nil, Options{}); err == nil {
		t.Error("nil collection accepted")
	}
	empty, _ := series.NewEmptyCollection(0, 64)
	if _, err := BuildDirect(empty, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	bad, _ := series.NewEmptyCollection(4, 100)
	if _, err := BuildDirect(bad, Options{Segments: 16}); err == nil {
		t.Error("non-multiple length accepted")
	}
}

// The direct (no-buffer) build must produce an index that answers queries
// identically to the buffered build.
func TestBuildDirectSearchMatchesBuffered(t *testing.T) {
	data, err := dataset.Generate(dataset.SeismicLike, 2500, 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BuildDirect(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := dataset.Queries(dataset.SeismicLike, 15, 64, 120)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		a, err := nn1(buffered, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := nn1(direct, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Dist-b.Dist) > 1e-9*(1+a.Dist) {
			t.Fatalf("query %d: buffered %v vs direct %v", qi, a.Dist, b.Dist)
		}
	}
}

// Both builds store the same multiset of series per root subtree.
func TestBuildDirectSameRootDistribution(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 2000, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	buffered, _ := Build(data, smallOpts())
	direct, _ := BuildDirect(data, smallOpts())
	if len(buffered.ActiveRoots()) != len(direct.ActiveRoots()) {
		t.Fatalf("active roots differ: %d vs %d",
			len(buffered.ActiveRoots()), len(direct.ActiveRoots()))
	}
	for i, slot := range buffered.ActiveRoots() {
		if direct.ActiveRoots()[i] != slot {
			t.Fatalf("root slot %d differs", i)
		}
		if buffered.Tree.Root(int(slot)).Size != direct.Tree.Root(int(slot)).Size {
			t.Fatalf("root %d sizes differ: %d vs %d", slot,
				buffered.Tree.Root(int(slot)).Size, direct.Tree.Root(int(slot)).Size)
		}
	}
}

func TestLocalQueuesSearchMatchesBruteForce(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 15, 64, 121)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForce1NN(ix.Data, q)
		got, err := nn1(ix, q, SearchOptions{LocalQueues: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: local-queue dist %v, want %v", qi, got.Dist, want.Dist)
		}
	}
}

func TestLocalQueuesForcesQueueCount(t *testing.T) {
	o := SearchOptions{LocalQueues: true, Workers: 7, Queues: 3}.withDefaults(Options{}.withDefaults())
	if o.Queues != 7 {
		t.Errorf("LocalQueues should force Queues == Workers, got %d", o.Queues)
	}
}

func TestApproxSearchUpperBoundsExact(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 20, 64, 122)
	exactAtLeastOnce := false
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		approx, err := approxNN(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if approx.Dist < exact.Dist-1e-9 {
			t.Fatalf("query %d: approximate %v below exact %v (impossible)", qi, approx.Dist, exact.Dist)
		}
		if math.Abs(approx.Dist-exact.Dist) < 1e-9 {
			exactAtLeastOnce = true
		}
	}
	// The paper reports the initial BSF is usually very close to final;
	// on random walks the approximate answer is frequently exact.
	if !exactAtLeastOnce {
		t.Error("approximate search never matched the exact answer across 20 queries (suspicious)")
	}
}

func TestApproxSearchSelfQueryIsExact(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 1000, 64, smallOpts())
	for i := 0; i < 10; i++ {
		m, err := approxNN(ix, ix.Data.At(i*101%1000), SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("self approx query %d: dist %v", i, m.Dist)
		}
	}
}

func TestApproxSearchValidation(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 100, 64, smallOpts())
	if _, err := approxNN(ix, make([]float32, 16), SearchOptions{}); err == nil {
		t.Error("wrong-length query accepted")
	}
}

func TestBuildLockedBuffersMatchesBuild(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 2500, 64, 14)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := BuildLockedBuffers(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := locked.Stats(); st.Series != 2500 {
		t.Fatalf("locked build holds %d series", st.Series)
	}
	if err := locked.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buffered, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := dataset.Queries(dataset.RandomWalk, 10, 64, 140)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		a, err := nn1(buffered, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := nn1(locked, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Dist-b.Dist) > 1e-9*(1+a.Dist) {
			t.Fatalf("query %d: buffered %v vs locked %v", qi, a.Dist, b.Dist)
		}
	}
}

func TestBuildLockedBuffersValidation(t *testing.T) {
	if _, err := BuildLockedBuffers(nil, Options{}); err == nil {
		t.Error("nil collection accepted")
	}
	empty, _ := series.NewEmptyCollection(0, 64)
	if _, err := BuildLockedBuffers(empty, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	bad, _ := series.NewEmptyCollection(4, 100)
	if _, err := BuildLockedBuffers(bad, Options{Segments: 16}); err == nil {
		t.Error("non-multiple length accepted")
	}
}
