package paa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransformKnown(t *testing.T) {
	s := []float32{1, 3, 2, 4, 10, 20, 0, 0}
	got := Transform(s, 4, nil)
	want := []float64{2, 3, 15, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("segment %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransformSingleSegment(t *testing.T) {
	s := []float32{1, 2, 3, 4}
	got := Transform(s, 1, nil)
	if len(got) != 1 || math.Abs(got[0]-2.5) > 1e-9 {
		t.Errorf("got %v, want [2.5]", got)
	}
}

func TestTransformIdentityWhenSegmentIsPoint(t *testing.T) {
	s := []float32{5, -1, 2}
	got := Transform(s, 3, nil)
	for i := range s {
		if math.Abs(got[i]-float64(s[i])) > 1e-9 {
			t.Errorf("w==n should be the identity; got %v", got)
		}
	}
}

func TestTransformReusesDst(t *testing.T) {
	s := []float32{1, 2, 3, 4}
	dst := make([]float64, 2)
	got := Transform(s, 2, dst)
	if &got[0] != &dst[0] {
		t.Error("Transform should reuse a sufficiently large dst")
	}
}

// Mean preservation: the average of the PAA equals the average of the
// series (each segment is an average of equal-size groups).
func TestMeanPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(16)
		seg := 1 + r.Intn(16)
		n := w * seg
		s := make([]float32, n)
		var total float64
		for i := range s {
			s[i] = float32(r.NormFloat64())
			total += float64(s[i])
		}
		p := Transform(s, w, nil)
		var paaTotal float64
		for _, v := range p {
			paaTotal += v
		}
		return math.Abs(paaTotal*float64(seg)-total) < 1e-4
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSegmentMinMax(t *testing.T) {
	s := []float32{1, 5, -3, 2, 7, 7, 0, -9}
	mx := SegmentMax(s, 4, nil)
	mn := SegmentMin(s, 4, nil)
	wantMax := []float64{5, 2, 7, 0}
	wantMin := []float64{1, -3, 7, -9}
	for i := 0; i < 4; i++ {
		if mx[i] != wantMax[i] {
			t.Errorf("max[%d] = %v, want %v", i, mx[i], wantMax[i])
		}
		if mn[i] != wantMin[i] {
			t.Errorf("min[%d] = %v, want %v", i, mn[i], wantMin[i])
		}
	}
}

// The PAA mean of a segment always lies between the segment min and max.
func TestPAABetweenMinAndMax(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(16)
		seg := 1 + r.Intn(16)
		s := make([]float32, w*seg)
		for i := range s {
			s[i] = float32(r.NormFloat64())
		}
		p := Transform(s, w, nil)
		mx := SegmentMax(s, w, nil)
		mn := SegmentMin(s, w, nil)
		for i := 0; i < w; i++ {
			if p[i] < mn[i]-1e-6 || p[i] > mx[i]+1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckDivisible(t *testing.T) {
	if err := CheckDivisible(256, 16); err != nil {
		t.Errorf("256/16 should be fine: %v", err)
	}
	if err := CheckDivisible(255, 16); err == nil {
		t.Error("255/16 should fail")
	}
	if err := CheckDivisible(0, 16); err == nil {
		t.Error("zero length should fail")
	}
	if err := CheckDivisible(256, 0); err == nil {
		t.Error("zero segments should fail")
	}
	if err := CheckDivisible(256, -4); err == nil {
		t.Error("negative segments should fail")
	}
}

// CheckDivisible validates that a series length is usable with w segments.
// The paper pads series when necessary; we surface an error instead and let
// callers choose lengths (all built-in generators use multiples of w).
func CheckDivisible(length, w int) error {
	if w <= 0 {
		return fmt.Errorf("paa: non-positive segment count %d", w)
	}
	if length <= 0 {
		return fmt.Errorf("paa: non-positive series length %d", length)
	}
	if length%w != 0 {
		return fmt.Errorf("paa: series length %d is not a multiple of segment count %d", length, w)
	}
	return nil
}
