// Package pqueue provides the lock-protected, dynamically-sized binary
// min-heaps that MESSI's search workers use to process index leaves in
// order of increasing lower-bound distance (§III-B of the paper).
//
// The paper's final design uses Nq > 1 shared queues: a single queue costs
// too much synchronization at 48 threads, per-thread queues imbalance the
// load, so workers insert round-robin across Nq queues and claim queues to
// drain, abandoning a queue (marking it finished) as soon as its minimum
// exceeds the best-so-far. Set implements that protocol.
package pqueue

import (
	"sync"
	"sync/atomic"
)

// Item is a prioritized value.
type Item[T any] struct {
	Priority float64
	Value    T
}

// Queue is a concurrent binary min-heap ordered by Item.Priority. The
// backing array grows by doubling, matching the paper's "array whose size
// changes dynamically based on how many elements must be stored in it".
// The zero value is ready to use.
type Queue[T any] struct {
	mu       sync.Mutex
	items    []Item[T]
	finished atomic.Bool
}

// New returns an empty queue with the given initial capacity.
func New[T any](capacity int) *Queue[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Queue[T]{items: make([]Item[T], 0, capacity)}
}

// Push inserts a value with the given priority.
func (q *Queue[T]) Push(priority float64, value T) {
	q.mu.Lock()
	q.items = append(q.items, Item[T]{Priority: priority, Value: value})
	q.siftUp(len(q.items) - 1)
	q.mu.Unlock()
}

// PopMin removes and returns the minimum-priority item. ok is false when
// the queue is empty.
func (q *Queue[T]) PopMin() (item Item[T], ok bool) {
	q.mu.Lock()
	n := len(q.items)
	if n == 0 {
		q.mu.Unlock()
		return item, false
	}
	item = q.items[0]
	q.items[0] = q.items[n-1]
	var zero Item[T]
	q.items[n-1] = zero // release references held by the backing array
	q.items = q.items[:n-1]
	if n > 1 {
		q.siftDown(0)
	}
	q.mu.Unlock()
	return item, true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// MarkFinished records that this queue needs no further processing (its
// minimum exceeded the best-so-far, so everything behind it does too).
func (q *Queue[T]) MarkFinished() { q.finished.Store(true) }

// Finished reports whether the queue has been marked finished.
func (q *Queue[T]) Finished() bool { return q.finished.Load() }

// Reset empties the queue and clears the finished flag. Like PopMin it
// zeroes the vacated slots: searches abandon queues with items left, and a
// reused backing array must not keep the values they point to alive.
func (q *Queue[T]) Reset() {
	q.mu.Lock()
	clear(q.items)
	q.items = q.items[:0]
	q.mu.Unlock()
	q.finished.Store(false)
}

func (q *Queue[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].Priority <= q.items[i].Priority {
			break
		}
		q.items[parent], q.items[i] = q.items[i], q.items[parent]
		i = parent
	}
}

func (q *Queue[T]) siftDown(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.items[right].Priority < q.items[left].Priority {
			smallest = right
		}
		if q.items[i].Priority <= q.items[smallest].Priority {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// Set is a group of Nq shared queues implementing the paper's insertion
// and claiming protocol. A Set is resettable and resizable so a long-lived
// engine can reuse one set (and its queues' backing arrays) across
// queries; the zero value is an empty set ready for Resize.
type Set[T any] struct {
	queues []*Queue[T] // the active queues: all[:nq]
	all    []*Queue[T] // every queue ever allocated, retained across shrinks
}

// NewSet creates nq empty queues (nq >= 1 is enforced by clamping).
func NewSet[T any](nq, capacity int) *Set[T] {
	s := &Set[T]{}
	s.Resize(nq, capacity)
	return s
}

// Resize reconfigures the set to exactly nq active queues (clamped to
// >= 1) and resets every queue. Queues allocated by earlier, larger sizes
// are retained and reused on regrowth; newly allocated queues start with
// the given capacity.
func (s *Set[T]) Resize(nq, capacity int) {
	if nq < 1 {
		nq = 1
	}
	for len(s.all) < nq {
		s.all = append(s.all, New[T](capacity))
	}
	s.queues = s.all[:nq]
	for _, q := range s.all {
		q.Reset()
	}
}

// Size returns the number of queues in the set.
func (s *Set[T]) Size() int { return len(s.queues) }

// Queue returns queue i.
func (s *Set[T]) Queue(i int) *Queue[T] { return s.queues[i] }

// PushRoundRobin inserts into queue *cursor and advances the cursor
// (mod Nq). Each worker owns its own cursor (Algorithm 7, line 9), which
// keeps queue sizes balanced without extra synchronization.
func (s *Set[T]) PushRoundRobin(cursor *int, priority float64, value T) {
	i := *cursor % len(s.queues)
	s.queues[i].Push(priority, value)
	*cursor = (i + 1) % len(s.queues)
}

// NextUnfinished scans for a queue that is not yet finished, starting at
// the given position (wrapping). It returns the index, or -1 when every
// queue is finished — the worker's termination condition (Algorithm 6,
// lines 11-13).
func (s *Set[T]) NextUnfinished(start int) int {
	n := len(s.queues)
	if start < 0 {
		start = -start
	}
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if !s.queues[i].Finished() {
			return i
		}
	}
	return -1
}

// Reset resets every queue in the set.
func (s *Set[T]) Reset() {
	for _, q := range s.queues {
		q.Reset()
	}
}
