// Seismic-monitoring scenario: index a large archive of waveform snippets
// and, when a new event arrives, retrieve the most similar historical
// waveforms at interactive latency. This mirrors the paper's motivating
// in-memory analytics setting (and its IRIS Seismic evaluation dataset,
// here replaced by the seismic-like generator — see docs/REPRODUCTION.md).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	messi "repro"
)

func main() {
	const (
		archive = 100000 // historical waveform snippets
		length  = 256
	)

	fmt.Printf("generating %d archived waveforms...\n", archive)
	data := messi.SeismicLike(archive, length, 11)

	start := time.Now()
	ix, err := messi.BuildFlat(data, length, nil)
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("index built in %v — %d leaves, max depth %d\n",
		time.Since(start).Round(time.Millisecond), st.Leaves, st.MaxDepth)

	// A "new event" arrives: in a real deployment this would come from a
	// station feed; here it is a fresh draw from the same generator.
	events := messi.SeismicLike(5, length, 990011)
	for e := 0; e < 5; e++ {
		q := events[e*length : (e+1)*length]
		qStart := time.Now()
		res, err := ix.Do(context.Background(), messi.SearchRequest{Query: q, K: 5})
		if err != nil {
			log.Fatal(err)
		}
		similar := res.Matches
		elapsed := time.Since(qStart)
		fmt.Printf("\nevent %d: top-5 similar archived waveforms (in %v):\n",
			e, elapsed.Round(time.Microsecond))
		for rank, m := range similar {
			fmt.Printf("  %d. archive #%d  distance %.4f\n", rank+1, m.Position, m.Distance)
		}
		if elapsed < 100*time.Millisecond {
			fmt.Println("  → interactive (under the 100ms analysis threshold the paper targets)")
		}
	}
}
