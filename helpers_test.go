package messi

import "context"

// Test helpers over Do, one per request flavour, for Index and LiveIndex
// alike: every test asks through the one public query method.

type doer interface {
	Do(ctx context.Context, req SearchRequest) (Result, error)
}

func nn1(ix doer, q []float32) (Match, error) {
	return best(ix.Do(context.Background(), SearchRequest{Query: q}))
}

func knn(ix doer, q []float32, k int) ([]Match, error) {
	res, err := ix.Do(context.Background(), SearchRequest{Query: q, K: k})
	return res.Matches, err
}

func dtwNN(ix doer, q []float32, window float64) (Match, error) {
	return best(ix.Do(context.Background(), SearchRequest{Query: q, DTW: true, Window: window}))
}

func approxNN(ix doer, q []float32) (Match, error) {
	return best(ix.Do(context.Background(), SearchRequest{Query: q, Mode: ModeApprox}))
}

func best(res Result, err error) (Match, error) {
	if err != nil {
		return Match{}, err
	}
	return res.Best(), nil
}
