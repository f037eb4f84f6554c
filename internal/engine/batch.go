package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0,n) on up to workers goroutines that
// claim indexes via Fetch&Inc — the submitter fleet of a query batch, sized
// by the gate's PoolWorkers tokens: no more queries than tokens can run at
// once anyway, and a fixed fleet keeps one huge batch from allocating one
// goroutine per query. Every index runs even when some fail; the error
// returned is the lowest failing index's.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("batch query %d: %w", i, err)
		}
	}
	return nil
}
