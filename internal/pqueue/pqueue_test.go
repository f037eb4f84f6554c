package pqueue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	q := New[string](4)
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		item, ok := q.PopMin()
		if !ok || item.Value != w {
			t.Fatalf("PopMin = (%v,%v), want %q", item, ok, w)
		}
	}
	if _, ok := q.PopMin(); ok {
		t.Error("PopMin on empty queue should report !ok")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var q Queue[int]
	q.Push(1, 42)
	item, ok := q.PopMin()
	if !ok || item.Value != 42 {
		t.Fatalf("zero-value queue broken: %v %v", item, ok)
	}
}

func TestPeekMin(t *testing.T) {
	q := New[int](0)
	if _, ok := q.PeekMin(); ok {
		t.Error("PeekMin on empty should report !ok")
	}
	q.Push(5, 1)
	q.Push(2, 2)
	if p, ok := q.PeekMin(); !ok || p != 2 {
		t.Errorf("PeekMin = (%v,%v), want (2,true)", p, ok)
	}
	if q.Len() != 2 {
		t.Errorf("PeekMin must not remove; Len = %d", q.Len())
	}
}

// Popping everything yields a non-decreasing priority sequence (heap
// property), for any insertion order.
func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(priorities []float64) bool {
		q := New[int](0)
		for i, p := range priorities {
			q.Push(p, i)
		}
		prev := -1.0
		first := true
		for {
			item, ok := q.PopMin()
			if !ok {
				break
			}
			if !first && item.Priority < prev {
				return false
			}
			prev = item.Priority
			first = false
		}
		return q.Len() == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Pop order matches a sort of the inserted priorities.
func TestPopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	q := New[int](8)
	priorities := make([]float64, n)
	for i := range priorities {
		priorities[i] = rng.Float64() * 100
		q.Push(priorities[i], i)
	}
	sort.Float64s(priorities)
	for i := 0; i < n; i++ {
		item, ok := q.PopMin()
		if !ok {
			t.Fatalf("queue exhausted at %d", i)
		}
		if item.Priority != priorities[i] {
			t.Fatalf("pop %d: priority %v, want %v", i, item.Priority, priorities[i])
		}
	}
}

func TestFinishedFlag(t *testing.T) {
	q := New[int](0)
	if q.Finished() {
		t.Error("new queue should not be finished")
	}
	q.MarkFinished()
	if !q.Finished() {
		t.Error("MarkFinished did not stick")
	}
	q.Reset()
	if q.Finished() {
		t.Error("Reset should clear finished")
	}
}

func TestReset(t *testing.T) {
	q := New[int](0)
	q.Push(1, 1)
	q.Push(2, 2)
	q.Reset()
	if q.Len() != 0 {
		t.Errorf("Len after Reset = %d", q.Len())
	}
	if _, ok := q.PopMin(); ok {
		t.Error("PopMin after Reset should be empty")
	}
}

// A search marks a queue finished with items still in it; after Reset the
// reused backing array must hold no stale item (for pointer values: must not
// pin what they point to).
func TestResetZeroesAbandonedItems(t *testing.T) {
	q := New[*int](0)
	for i := 0; i < 10; i++ {
		q.Push(float64(i), new(int))
	}
	q.PopMin()
	q.MarkFinished()
	q.Reset()
	for i, it := range q.items[:cap(q.items)] {
		if it != (Item[*int]{}) {
			t.Fatalf("slot %d still holds %+v after Reset", i, it)
		}
	}
}

// Concurrent pushes followed by concurrent pops conserve items and respect
// per-pop ordering under the lock.
func TestConcurrentPushPop(t *testing.T) {
	q := New[int](0)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				q.Push(rng.Float64(), w*perWorker+i)
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", q.Len(), workers*perWorker)
	}
	seen := make([]bool, workers*perWorker)
	var mu sync.Mutex
	var popped int
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				item, ok := q.PopMin()
				if !ok {
					return
				}
				mu.Lock()
				if seen[item.Value] {
					t.Errorf("value %d popped twice", item.Value)
				}
				seen[item.Value] = true
				popped++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if popped != workers*perWorker {
		t.Fatalf("popped %d, want %d", popped, workers*perWorker)
	}
}

// Mixed concurrent push/pop must never lose or duplicate items.
func TestConcurrentMixed(t *testing.T) {
	q := New[int](0)
	const n = 2000
	var wg sync.WaitGroup
	results := make(chan int, n)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(float64(i%97), i)
		}
	}()
	go func() {
		defer wg.Done()
		got := 0
		for got < n {
			if item, ok := q.PopMin(); ok {
				results <- item.Value
				got++
			}
		}
	}()
	wg.Wait()
	close(results)
	seen := make(map[int]bool, n)
	for v := range results {
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct values, want %d", len(seen), n)
	}
}

func TestSetRoundRobin(t *testing.T) {
	s := NewSet[int](3, 0)
	cursor := 0
	for i := 0; i < 9; i++ {
		s.PushRoundRobin(&cursor, float64(i), i)
	}
	for i := 0; i < s.Size(); i++ {
		if got := s.Queue(i).Len(); got != 3 {
			t.Errorf("queue %d has %d items, want 3 (round-robin balance)", i, got)
		}
	}
	if s.TotalLen() != 9 {
		t.Errorf("TotalLen = %d, want 9", s.TotalLen())
	}
}

func TestSetNextUnfinished(t *testing.T) {
	s := NewSet[int](4, 0)
	if got := s.NextUnfinished(2); got != 2 {
		t.Errorf("NextUnfinished(2) = %d, want 2", got)
	}
	s.Queue(2).MarkFinished()
	if got := s.NextUnfinished(2); got != 3 {
		t.Errorf("NextUnfinished(2) after finish = %d, want 3", got)
	}
	for i := 0; i < 4; i++ {
		s.Queue(i).MarkFinished()
	}
	if got := s.NextUnfinished(0); got != -1 {
		t.Errorf("NextUnfinished all-finished = %d, want -1", got)
	}
	// Negative start positions are tolerated.
	s.Reset()
	if got := s.NextUnfinished(-5); got < 0 || got >= 4 {
		t.Errorf("NextUnfinished(-5) = %d out of range", got)
	}
}

func TestSetClampsSize(t *testing.T) {
	s := NewSet[int](0, 0)
	if s.Size() != 1 {
		t.Errorf("Size = %d, want clamped 1", s.Size())
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet[int](2, 0)
	cursor := 0
	s.PushRoundRobin(&cursor, 1, 1)
	s.Queue(1).MarkFinished()
	s.Reset()
	if s.TotalLen() != 0 {
		t.Error("Reset did not empty queues")
	}
	if s.Queue(1).Finished() {
		t.Error("Reset did not clear finished flags")
	}
}

func TestSetResize(t *testing.T) {
	var s Set[int] // zero value: empty set ready for Resize
	s.Resize(4, 8)
	if s.Size() != 4 {
		t.Fatalf("Size = %d, want 4", s.Size())
	}
	cursor := 0
	for i := 0; i < 8; i++ {
		s.PushRoundRobin(&cursor, float64(i), i)
	}
	s.Queue(3).MarkFinished()
	grown := s.Queue(3)

	// Shrinking resets content and finished flags; the active prefix is
	// exactly nq queues.
	s.Resize(2, 8)
	if s.Size() != 2 {
		t.Fatalf("after shrink Size = %d, want 2", s.Size())
	}
	if s.TotalLen() != 0 {
		t.Errorf("Resize did not empty queues: %d items", s.TotalLen())
	}

	// Regrowing reuses the queues allocated by the earlier, larger size.
	s.Resize(4, 8)
	if s.Size() != 4 {
		t.Fatalf("after regrow Size = %d, want 4", s.Size())
	}
	if s.Queue(3) != grown {
		t.Error("regrow did not reuse the previously allocated queue")
	}
	if s.Queue(3).Finished() {
		t.Error("regrow did not clear the finished flag")
	}
	if s.Resize(0, 8); s.Size() != 1 {
		t.Errorf("Resize(0) Size = %d, want clamp to 1", s.Size())
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New[int](1024)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Float64(), i)
		if i%2 == 1 {
			q.PopMin()
			q.PopMin()
		}
	}
}

// PeekMin returns the minimum priority without removing it; ok is false
// when the queue is empty.
func (q *Queue[T]) PeekMin() (priority float64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].Priority, true
}

// TotalLen reports the total number of queued items across the set.
func (s *Set[T]) TotalLen() int {
	total := 0
	for _, q := range s.queues {
		total += q.Len()
	}
	return total
}
