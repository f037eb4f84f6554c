package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// topK is the k-NN generalization of the BSF: a bounded max-heap of the k
// best matches. The pruning threshold is the k-th best distance (or +Inf
// until k results exist), published through an atomic so that the hot-path
// Load stays lock-free; mutations take the mutex.
//
// This implements the "complex analytics algorithms (e.g., k-NN
// classification)" use case the paper's introduction motivates; the k=1
// case degenerates to exactly the paper's BSF protocol.
type topK struct {
	mu        sync.Mutex
	k         int
	heap      []Match // max-heap on Dist
	threshold atomic.Uint64
	updates   atomic.Int64
}

func newTopK(k int) *topK {
	t := &topK{k: k}
	t.threshold.Store(math.Float64bits(math.Inf(1)))
	return t
}

// Load returns the current squared pruning threshold.
func (t *topK) Load() float64 { return math.Float64frombits(t.threshold.Load()) }

// Update offers a candidate; it reports whether the top-k set changed.
func (t *topK) Update(dist float64, pos int64) bool {
	if dist >= t.Load() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check under the lock (the threshold may have moved).
	if len(t.heap) == t.k && dist >= t.heap[0].Dist {
		return false
	}
	// Reject duplicates of the same position: the approximate-search leaf
	// is scanned again by the exact pass (the queue drain, or the
	// position-order scan).
	for _, m := range t.heap {
		if m.Position == int(pos) {
			return false
		}
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Match{Position: int(pos), Dist: dist})
		t.siftUp(len(t.heap) - 1)
	} else {
		t.heap[0] = Match{Position: int(pos), Dist: dist}
		t.siftDown(0)
	}
	if len(t.heap) == t.k {
		t.threshold.Store(math.Float64bits(t.heap[0].Dist))
	}
	t.updates.Add(1)
	return true
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heap[p].Dist >= t.heap[i].Dist {
			break
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && t.heap[r].Dist > t.heap[l].Dist {
			big = r
		}
		if t.heap[i].Dist >= t.heap[big].Dist {
			return
		}
		t.heap[i], t.heap[big] = t.heap[big], t.heap[i]
		i = big
	}
}

// Matches returns the matches sorted by ascending distance, ties by
// ascending position.
func (t *topK) Matches() []Match {
	t.mu.Lock()
	out := make([]Match, len(t.heap))
	copy(out, t.heap)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Position < out[j].Position
	})
	return out
}
