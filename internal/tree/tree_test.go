package tree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isax"
	"repro/internal/paa"
)

func newSchema(t testing.TB) *isax.Schema {
	t.Helper()
	s, err := isax.NewSchema(64, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomWord(rng *rand.Rand, w int) []uint8 {
	word := make([]uint8, w)
	for i := range word {
		word[i] = uint8(rng.Intn(256))
	}
	return word
}

// wordFromRandomSeries produces realistic (normal-ish) words so that root
// slots cluster the way real data does.
func wordFromRandomSeries(rng *rand.Rand, s *isax.Schema) []uint8 {
	raw := make([]float32, s.SeriesLen)
	v := 0.0
	for i := range raw {
		v += rng.NormFloat64()
		raw[i] = float32(v)
	}
	p := paa.Transform(raw, s.Segments, nil)
	return s.WordFromPAA(p, nil)
}

func TestNewValidation(t *testing.T) {
	s := newSchema(t)
	if _, err := New(nil, 10); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := New(s, 0); err == nil {
		t.Error("zero leaf capacity accepted")
	}
	tr, err := New(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.RootCount() != 1<<16 {
		t.Errorf("RootCount = %d, want %d", tr.RootCount(), 1<<16)
	}
}

func TestEnsureRootSummaries(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 10)
	l := 0b1010110010101100
	n := tr.EnsureRoot(l)
	if tr.Root(l) != n {
		t.Error("EnsureRoot did not store the node")
	}
	if again := tr.EnsureRoot(l); again != n {
		t.Error("EnsureRoot created a duplicate")
	}
	for seg := 0; seg < 16; seg++ {
		wantBit := uint8(l>>(15-seg)) & 1
		if n.Symbols[seg] != wantBit || n.Bits[seg] != 1 {
			t.Errorf("segment %d: symbol=%d bits=%d, want symbol=%d bits=1",
				seg, n.Symbols[seg], n.Bits[seg], wantBit)
		}
	}
}

func TestInsertSingle(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 10)
	rng := rand.New(rand.NewSource(1))
	word := wordFromRandomSeries(rng, s)
	l := s.RootIndex(word)
	root := tr.EnsureRoot(l)
	tr.Insert(root, word, 42)
	if root.LeafLen() != 1 || root.Positions[0] != 42 {
		t.Fatalf("leaf contents wrong: %v", root.Positions)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertManyAndInvariants(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 8)
	rng := rand.New(rand.NewSource(2))
	const n = 5000
	for i := 0; i < n; i++ {
		word := wordFromRandomSeries(rng, s)
		root := tr.EnsureRoot(s.RootIndex(word))
		tr.Insert(root, word, int32(i))
	}
	st := tr.Stats()
	if st.Series != n {
		t.Fatalf("Series = %d, want %d (entry conservation)", st.Series, n)
	}
	if st.Leaves == 0 || st.RootChildren == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitHappens(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 4)
	rng := rand.New(rand.NewSource(3))
	// Force everything into the same root slot by fixing top bits.
	var words [][]uint8
	for len(words) < 40 {
		w := randomWord(rng, 16)
		for i := range w {
			w[i] |= 0x80 // top bit 1 everywhere → same root slot
		}
		words = append(words, w)
	}
	l := s.RootIndex(words[0])
	root := tr.EnsureRoot(l)
	for i, w := range words {
		tr.Insert(root, w, int32(i))
	}
	if root.IsLeaf() {
		t.Fatal("root child should have split")
	}
	st := tr.Stats()
	if st.Series != len(words) {
		t.Fatalf("Series = %d, want %d", st.Series, len(words))
	}
	if st.MaxLeafFill > 4 {
		t.Fatalf("a leaf exceeds capacity: %d", st.MaxLeafFill)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsplittableLeafGrows(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 2)
	// Identical words can never be separated: the leaf must grow beyond
	// capacity instead of splitting forever.
	word := make([]uint8, 16)
	for i := range word {
		word[i] = 0xAB
	}
	root := tr.EnsureRoot(s.RootIndex(word))
	for i := 0; i < 20; i++ {
		tr.Insert(root, word, int32(i))
	}
	st := tr.Stats()
	if st.Series != 20 {
		t.Fatalf("Series = %d, want 20", st.Series)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All entries end up in one deep leaf of size 20.
	if st.MaxLeafFill != 20 {
		t.Fatalf("MaxLeafFill = %d, want 20", st.MaxLeafFill)
	}
}

func TestNearIdenticalWordsSplitToBottom(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 2)
	// Two word values differing only in the last bit of segment 7:
	// the split chain must refine segment 7 all the way down.
	a := make([]uint8, 16)
	b := make([]uint8, 16)
	for i := range a {
		a[i], b[i] = 0x55, 0x55
	}
	b[7] = 0x54
	root := tr.EnsureRoot(s.RootIndex(a))
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			tr.Insert(root, a, int32(i))
		} else {
			tr.Insert(root, b, int32(i))
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Series != 6 {
		t.Fatalf("Series = %d", st.Series)
	}
	if st.MaxLeafFill != 3 {
		t.Fatalf("MaxLeafFill = %d, want 3 (a/b separated)", st.MaxLeafFill)
	}
}

func TestBalancedSplitPolicy(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 4)
	// Words whose segment 0 next-bit is perfectly balanced (2×0, 2×1) and
	// whose other segments are constant: the split must choose segment 0.
	words := [][]uint8{
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		{0xC0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		{0xC1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		{0xC2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	}
	root := tr.EnsureRoot(s.RootIndex(words[0]))
	for i, w := range words {
		tr.Insert(root, w, int32(i))
	}
	if root.IsLeaf() {
		t.Fatal("expected a split")
	}
	if root.SplitSegment != 0 {
		t.Fatalf("SplitSegment = %d, want 0 (the only informative segment)", root.SplitSegment)
	}
	// 0x80,0x81 (second bit 0) left; 0xC0,0xC1,0xC2 (second bit 1) right.
	if root.Left.Size != 2 || root.Right.Size != 3 {
		t.Fatalf("split sizes = %d/%d, want 2/3", root.Left.Size, root.Right.Size)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLeafCoversEverything(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 16)
	rng := rand.New(rand.NewSource(4))
	const n = 2000
	for i := 0; i < n; i++ {
		word := wordFromRandomSeries(rng, s)
		tr.Insert(tr.EnsureRoot(s.RootIndex(word)), word, int32(i))
	}
	seen := make([]bool, n)
	tr.ForEachLeaf(func(node *Node) {
		if !node.IsLeaf() {
			t.Error("ForEachLeaf visited an internal node")
		}
		for _, pos := range node.Positions {
			if seen[pos] {
				t.Errorf("position %d in two leaves", pos)
			}
			seen[pos] = true
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d missing from leaves", i)
		}
	}
}

func TestStatsEmptyTree(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 16)
	st := tr.Stats()
	if st != (Stats{}) {
		t.Errorf("empty tree stats = %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree should satisfy invariants: %v", err)
	}
}

func TestInvariantCatchesCorruption(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 8)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		word := wordFromRandomSeries(rng, s)
		tr.Insert(tr.EnsureRoot(s.RootIndex(word)), word, int32(i))
	}
	// Corrupt one leaf entry's word so it no longer matches its prefix.
	var leaf *Node
	tr.ForEachLeaf(func(n *Node) {
		if leaf == nil && n.LeafLen() > 0 {
			leaf = n
		}
	})
	if leaf == nil {
		t.Fatal("no leaf found")
	}
	leaf.Words[0] ^= 0x80 // flip the top bit → different root subtree
	if err := tr.CheckInvariants(); err == nil {
		t.Error("corrupted word not detected")
	}
	leaf.Words[0] ^= 0x80
	leaf.Size++
	if err := tr.CheckInvariants(); err == nil {
		t.Error("size corruption not detected")
	}
}

func BenchmarkInsert(b *testing.B) {
	s, err := isax.NewSchema(64, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	words := make([][]uint8, 4096)
	for i := range words {
		words[i] = wordFromRandomSeries(rng, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tr, _ := New(s, 100)
	for i := 0; i < b.N; i++ {
		word := words[i%len(words)]
		tr.Insert(tr.EnsureRoot(s.RootIndex(word)), word, int32(i))
	}
}

// Property: any random insert sequence preserves all tree invariants and
// conserves every inserted entry in the leaf whose prefix it matches.
func TestRandomInsertSequencesProperty(t *testing.T) {
	s := newSchema(t)
	rng := rand.New(rand.NewSource(100))
	f := func(seed int64, leafCapRaw uint8, nRaw uint16) bool {
		leafCap := int(leafCapRaw)%64 + 1
		n := int(nRaw)%800 + 1
		r := rand.New(rand.NewSource(seed))
		tr, err := New(s, leafCap)
		if err != nil {
			return false
		}
		words := make([][]uint8, n)
		for i := range words {
			if i > 0 && r.Intn(4) == 0 {
				// Frequent duplicates stress the split path.
				words[i] = words[r.Intn(i)]
			} else {
				words[i] = wordFromRandomSeries(r, s)
			}
			root := tr.EnsureRoot(s.RootIndex(words[i]))
			tr.Insert(root, words[i], int32(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariant violation: %v", err)
			return false
		}
		if tr.Stats().Series != n {
			return false
		}
		// Every entry must be reachable by descending its own word.
		for i, w := range words {
			root := tr.Root(s.RootIndex(w))
			if root == nil {
				return false
			}
			leaf := tr.DescendToLeaf(root, w)
			found := false
			for j := 0; j < leaf.LeafLen(); j++ {
				if leaf.Positions[j] == int32(i) {
					found = true
					break
				}
			}
			if !found {
				t.Logf("entry %d not in its own leaf", i)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the node prefix bound never exceeds the word bound of any
// entry stored beneath it (what makes subtree pruning safe).
func TestNodeBoundNeverExceedsEntryBound(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 8)
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 3000; i++ {
		w := wordFromRandomSeries(rng, s)
		tr.Insert(tr.EnsureRoot(s.RootIndex(w)), w, int32(i))
	}
	qpaa := make([]float64, s.Segments)
	for trial := 0; trial < 50; trial++ {
		for i := range qpaa {
			qpaa[i] = rng.NormFloat64()
		}
		var walk func(n *Node) bool
		walk = func(n *Node) bool {
			nodeBound := s.MinDistPAAPrefix(qpaa, n.Symbols, n.Bits)
			if n.IsLeaf() {
				for i := 0; i < n.LeafLen(); i++ {
					if s.MinDistPAAWord(qpaa, n.Word(i, s.Segments, nil)) < nodeBound-1e-9 {
						return false
					}
				}
				return true
			}
			return walk(n.Left) && walk(n.Right)
		}
		for l := 0; l < tr.RootCount(); l++ {
			if r := tr.Root(l); r != nil && !walk(r) {
				t.Fatal("node bound exceeded an entry bound (pruning unsound)")
			}
		}
	}
}

// TestSegmentMajorLeafLayout pins the SoA leaf storage: after random
// inserts (exercising appends, grows, and splits), every leaf's columns
// and gathered words agree with one another, and inserted entries are
// recoverable from the columns. (The packed form written to snapshots is
// pinned by TestFlattenRoundTrip.)
func TestSegmentMajorLeafLayout(t *testing.T) {
	s := newSchema(t)
	tr, err := New(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Segments
	rng := rand.New(rand.NewSource(99))
	inserted := make(map[int32][]uint8)
	for i := 0; i < 3000; i++ {
		word := wordFromRandomSeries(rng, s)
		tr.Insert(tr.EnsureRoot(s.RootIndex(word)), word, int32(i))
		inserted[int32(i)] = word
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	tr.ForEachLeaf(func(n *Node) {
		count := n.LeafLen()
		if count > n.Stride {
			t.Fatalf("leaf count %d exceeds stride %d", count, n.Stride)
		}
		wordBuf := make([]uint8, w)
		for i := 0; i < count; i++ {
			word := n.Word(i, w, wordBuf)
			want := inserted[n.Positions[i]]
			for seg := 0; seg < w; seg++ {
				if col := n.Col(seg); col[i] != word[seg] {
					t.Fatalf("Col(%d)[%d] = %d, Word gather = %d", seg, i, col[i], word[seg])
				}
				if word[seg] != want[seg] {
					t.Fatalf("position %d segment %d stored %d, inserted %d", n.Positions[i], seg, word[seg], want[seg])
				}
			}
			seen++
		}
	})
	if seen != len(inserted) {
		t.Fatalf("leaves hold %d entries, inserted %d", seen, len(inserted))
	}
}

// TestBuildRootMatchesInsert: BuildRoot, fed each root's positions in
// order, builds the tree a sequential insertRef of every word builds, byte
// for byte, at every root key width and leaf capacity — duplicates included,
// which split to full cardinality and leave unsplittable leaves — with
// exactly sized leaf columns and positions aliasing the run's.
func TestBuildRootMatchesInsert(t *testing.T) {
	s := newSchema(t)
	w := s.Segments
	rng := rand.New(rand.NewSource(5))
	var words []uint8
	for i := 0; i < 2500; i++ {
		word := wordFromRandomSeries(rng, s)
		if i%50 == 49 {
			word = words[:w] // the first word again, 49 times over
		}
		words = append(words, word...)
	}
	n := len(words) / w
	for _, k := range []int{0, 1, 7, w} {
		for _, leafCap := range []int{1, 4, 16, 2000} {
			ref, err := NewRooted(s, leafCap, k)
			if err != nil {
				t.Fatal(err)
			}
			bulk, _ := NewRooted(s, leafCap, k)
			runs, runWords := make([][]int32, ref.RootCount()), make([][]uint8, ref.RootCount())
			for i := 0; i < n; i++ {
				word := words[i*w : (i+1)*w]
				l := ref.RootKey(word)
				ref.insertRef(ref.EnsureRoot(l), word, int32(i))
				runs[l], runWords[l] = append(runs[l], int32(i)), append(runWords[l], word...)
			}
			for l, run := range runs {
				if len(run) > 0 {
					bulk.BuildRoot(l, runWords[l], run, make([]uint8, len(run)*w), make([]int32, len(run)))
				}
			}
			name := fmt.Sprintf("k=%d, capacity %d", k, leafCap)
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, _ := ref.AppendBinary(nil)
			if got, _ := bulk.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: BuildRoot's tree differs from Insert's", name)
			}
			bulk.ForEachLeaf(func(leaf *Node) {
				if leaf.Stride != leaf.LeafLen() || cap(leaf.Positions) != leaf.LeafLen() {
					t.Fatalf("%s: leaf of %d entries has stride %d, positions capacity %d",
						name, leaf.LeafLen(), leaf.Stride, cap(leaf.Positions))
				}
			})
		}
	}
}
