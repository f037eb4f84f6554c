package dataset

import (
	"math"
	"testing"

	"repro/internal/series"
)

func TestSlidingWindowsShape(t *testing.T) {
	stream := make([]float32, 100)
	for i := range stream {
		stream[i] = float32(i)
	}
	c, err := SlidingWindows(stream, 10, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	// Starts at 0,5,...,90 → 19 windows.
	if c.Count() != 19 || c.Length != 10 {
		t.Fatalf("shape %d×%d, want 19×10", c.Count(), c.Length)
	}
	// Window i starts at stream offset i*step.
	for i := 0; i < c.Count(); i++ {
		if c.At(i)[0] != float32(WindowStart(i, 5)) {
			t.Fatalf("window %d starts at %v, want %d", i, c.At(i)[0], WindowStart(i, 5))
		}
	}
}

func TestSlidingWindowsStepOne(t *testing.T) {
	stream := make([]float32, 20)
	c, err := SlidingWindows(stream, 16, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 5 {
		t.Fatalf("count %d, want 5", c.Count())
	}
}

func TestSlidingWindowsExactFit(t *testing.T) {
	stream := make([]float32, 16)
	c, err := SlidingWindows(stream, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count %d, want 1", c.Count())
	}
}

func TestSlidingWindowsErrors(t *testing.T) {
	stream := make([]float32, 10)
	if _, err := SlidingWindows(stream, 0, 1, false); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := SlidingWindows(stream, 4, 0, false); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := SlidingWindows(stream, 11, 1, false); err == nil {
		t.Error("window longer than stream accepted")
	}
}

func TestSlidingWindowsNormalize(t *testing.T) {
	stream := make([]float32, 64)
	for i := range stream {
		stream[i] = float32(i * i) // strongly trending
	}
	c, err := SlidingWindows(stream, 16, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Count(); i++ {
		if m := series.Mean(c.At(i)); math.Abs(m) > 1e-4 {
			t.Fatalf("window %d mean %v, want ~0", i, m)
		}
		if sd := series.Std(c.At(i)); math.Abs(sd-1) > 1e-3 {
			t.Fatalf("window %d std %v, want ~1", i, sd)
		}
	}
	// Normalization must not modify the source stream.
	if stream[63] != float32(63*63) {
		t.Error("SlidingWindows mutated the input stream")
	}
}

// WindowStart maps a subsequence position (as returned by index queries
// over a SlidingWindows collection) back to its offset in the original
// stream.
func WindowStart(position, step int) int { return position * step }
