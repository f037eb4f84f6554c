package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEach pins the batch submitter's contract: every index runs
// exactly once even when some fail, at any fleet size (more workers than
// indexes included), and the error returned is the lowest failing index's,
// wrapped with that index's number.
func TestForEach(t *testing.T) {
	const n = 10
	var fails [n]error
	for _, i := range []int{4, 7} {
		fails[i] = fmt.Errorf("query %d failed", i)
	}
	for _, workers := range []int{1, 3, n, 4 * n} {
		var ran [n]atomic.Int32
		err := ForEach(n, workers, func(i int) error {
			ran[i].Add(1)
			return fails[i]
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want once", workers, i, got)
			}
		}
		if !errors.Is(err, fails[4]) || errors.Is(err, fails[7]) {
			t.Errorf("workers=%d: err = %v, want index 4's", workers, err)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "batch query 4:") {
			t.Errorf("workers=%d: error %q does not name index 4", workers, err)
		}
		if err := ForEach(n, workers, func(int) error { return nil }); err != nil {
			t.Errorf("workers=%d: all succeed, err = %v", workers, err)
		}
	}
	if err := ForEach(0, 4, func(i int) error {
		t.Errorf("n=0 ran index %d", i)
		return errors.New("unreachable")
	}); err != nil {
		t.Errorf("n=0: err = %v, want nil", err)
	}
}
