package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestTallyAdd(t *testing.T) {
	a := Tally{LowerBoundCalcs: 1, RealDistCalcs: 2, NodesVisited: 4}
	a.Phases[PhaseTreePass] = 2 * time.Millisecond
	o := Tally{LowerBoundCalcs: 10, BSFUpdates: 3, LeavesInserted: 6, LeavesPruned: 7, ScanPlans: 2}
	o.Phases[PhaseTreePass] = 3 * time.Millisecond
	o.Phases[PhaseDistCalc] = 5 * time.Millisecond
	a.Add(o)
	want := Tally{LowerBoundCalcs: 11, RealDistCalcs: 2, BSFUpdates: 3, NodesVisited: 4,
		LeavesInserted: 6, LeavesPruned: 7, ScanPlans: 2}
	want.Phases[PhaseTreePass] = 5 * time.Millisecond
	want.Phases[PhaseDistCalc] = 5 * time.Millisecond
	if a != want {
		t.Errorf("Add result %+v, want %+v", a, want)
	}
}

func TestCountersAccumulate(t *testing.T) {
	var c Tally
	c.Add(Tally{LowerBoundCalcs: 5})
	c.Add(Tally{LowerBoundCalcs: 2})
	c.Add(Tally{RealDistCalcs: 3})
	c.Add(Tally{BSFUpdates: 1})
	c.Add(Tally{NodesVisited: 4})
	c.Add(Tally{LeavesInserted: 6})
	c.Add(Tally{LeavesPruned: 7})
	c.Add(Tally{ScanPlans: 1})
	want := Tally{LowerBoundCalcs: 7, RealDistCalcs: 3, BSFUpdates: 1,
		NodesVisited: 4, LeavesInserted: 6, LeavesPruned: 7, ScanPlans: 1}
	if c != want {
		t.Errorf("tally = %+v, want %+v", c, want)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Tally{LowerBoundCalcs: 1, RealDistCalcs: 2}
	a.Add(Tally{LowerBoundCalcs: 10, BSFUpdates: 3, ScanPlans: 2})
	if a.LowerBoundCalcs != 11 || a.RealDistCalcs != 2 || a.BSFUpdates != 3 || a.ScanPlans != 2 {
		t.Errorf("Add result %+v", a)
	}
}

// foldConcurrently runs workers goroutines that each count per units of
// one into a tally of their own and fold it into a shared total under a
// mutex once, as search workers do; it returns the total.
func foldConcurrently(workers, per int, one Tally) Tally {
	var (
		mu    sync.Mutex
		total Tally
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine Tally
			for i := 0; i < per; i++ {
				mine.Add(one)
			}
			mu.Lock()
			total.Add(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

func TestCountersConcurrent(t *testing.T) {
	const workers = 8
	const per = 1000
	got := foldConcurrently(workers, per, Tally{LowerBoundCalcs: 1})
	if got.LowerBoundCalcs != workers*per {
		t.Errorf("LowerBoundCalcs = %d, want %d", got.LowerBoundCalcs, workers*per)
	}
	if got.RealDistCalcs != 0 {
		t.Errorf("RealDistCalcs = %d, want 0", got.RealDistCalcs)
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	var b Tally
	add := func(p Phase, d time.Duration) {
		var o Tally
		o.Phases[p] = d
		b.Add(o)
	}
	add(PhaseTreePass, 2*time.Millisecond)
	add(PhaseTreePass, 3*time.Millisecond)
	add(PhaseDistCalc, 5*time.Millisecond)
	if got := b.Phases[PhaseTreePass]; got != 5*time.Millisecond {
		t.Errorf("tree pass = %v", got)
	}
	var total time.Duration
	for _, d := range b.Phases {
		total += d
	}
	if total != 10*time.Millisecond {
		t.Errorf("total = %v", total)
	}
}

func TestBreakdownConcurrent(t *testing.T) {
	var one Tally
	one.Phases[PhasePQInsert] = time.Microsecond
	got := foldConcurrently(8, 100, one)
	if d := got.Phases[PhasePQInsert]; d != 800*time.Microsecond {
		t.Errorf("concurrent accumulate = %v, want 800µs", d)
	}
	for p, d := range got.Phases {
		if Phase(p) != PhasePQInsert && d != 0 {
			t.Errorf("%v = %v, want 0", Phase(p), d)
		}
	}
}

func TestBSFInitial(t *testing.T) {
	b := NewBSF()
	if !math.IsInf(b.Load(), 1) {
		t.Errorf("initial BSF = %v, want +Inf", b.Load())
	}
	if _, pos := b.Best(); pos != -1 {
		t.Errorf("initial pos = %d, want -1", pos)
	}
}

func TestBSFUpdateMonotone(t *testing.T) {
	b := NewBSF()
	if !b.Update(10, 1) {
		t.Error("first update should succeed")
	}
	if b.Update(10, 2) {
		t.Error("equal update should fail")
	}
	if b.Update(11, 3) {
		t.Error("worse update should fail")
	}
	if !b.Update(5, 4) {
		t.Error("better update should succeed")
	}
	d, pos := b.Best()
	if d != 5 || pos != 4 {
		t.Errorf("Best = (%v,%d), want (5,4)", d, pos)
	}
}

func TestBSFZeroDistance(t *testing.T) {
	b := NewBSF()
	if !b.Update(0, 7) {
		t.Error("zero-distance update should succeed")
	}
	if b.Load() != 0 {
		t.Errorf("BSF = %v, want 0", b.Load())
	}
	if b.Update(0, 8) {
		t.Error("repeated zero should not update")
	}
}

// Concurrent updates must converge to the global minimum.
func TestBSFConcurrentMin(t *testing.T) {
	b := NewBSF()
	const workers = 8
	const per = 2000
	vals := make([][]float64, workers)
	globalMin := math.Inf(1)
	for w := range vals {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		vals[w] = make([]float64, per)
		for i := range vals[w] {
			vals[w][i] = rng.Float64() * 1000
			if vals[w][i] < globalMin {
				globalMin = vals[w][i]
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, v := range vals[w] {
				b.Update(v, int64(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if b.Load() != globalMin {
		t.Errorf("converged BSF = %v, want %v", b.Load(), globalMin)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseInit:     "Initialization",
		PhaseTreePass: "MESSI tree pass",
		PhasePQInsert: "PQ insert node",
		PhasePQRemove: "PQ remove node",
		PhaseDistCalc: "Distance calculation",
		Phase(99):     "Unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}
