package tree

// The tests here name the round trip of AppendBinary (a tree flattened
// to its preorder tree section) and Decode (the section unflattened back
// into nodes) flatten and unflatten.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// buildRandomTree inserts n realistic words into a fresh tree whose root
// is keyed on the first k segments.
func buildRandomTree(t *testing.T, n, leafCap, k int) *Tree {
	t.Helper()
	s := newSchema(t)
	tr, err := NewRooted(s, leafCap, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		word := wordFromRandomSeries(rng, s)
		tr.Insert(tr.EnsureRoot(tr.RootKey(word)), word, int32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func encode(t *testing.T, tr *Tree) []byte {
	t.Helper()
	b, err := tr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlattenRoundTrip: a tree decodes to itself and re-encodes to the
// same bytes at every root key width — a single root (k = 0), two, the
// 128 of 250 000 series at the default leaf, and MESSI's 2^w — and loads
// with the k it was built at, which the section does not store.
func TestFlattenRoundTrip(t *testing.T) {
	for _, k := range []int{0, 1, 7, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { testFlattenRoundTrip(t, k) })
	}
}

func testFlattenRoundTrip(t *testing.T, k int) {
	tr := buildRandomTree(t, 3000, 16, k)
	b := encode(t, tr)
	back, err := Decode(tr.Schema, tr.LeafCapacity, 3000, b)
	if err != nil {
		t.Fatal(err)
	}
	if back.RootBits() != k || back.RootCount() != 1<<k {
		t.Fatalf("decoded root keyed on %d segments with %d slots, want %d", back.RootBits(), back.RootCount(), k)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatalf("decoded tree violates invariants: %v", err)
	}
	if got, want := back.Stats(), tr.Stats(); got != want {
		t.Fatalf("decoded stats %+v, want %+v", got, want)
	}
	if again := encode(t, back); !bytes.Equal(again, b) {
		t.Fatal("re-encoding the decoded tree changed the bytes")
	}
	// AppendBinary appends: a prefix is kept, the section follows it.
	if pre, err := tr.AppendBinary([]byte("xy")); err != nil || !bytes.Equal(pre, append([]byte("xy"), b...)) {
		t.Fatalf("AppendBinary after a prefix: %v", err)
	}

	// Same leaves reachable by descent: every original entry's word must
	// land in a leaf holding its position and the same word.
	w := tr.Schema.Segments
	tr.ForEachLeaf(func(n *Node) {
		for i := 0; i < n.LeafLen(); i++ {
			word := n.Word(i, w, nil)
			leaf := back.DescendToLeaf(back.Root(back.RootKey(word)), word)
			found := false
			for j, p := range leaf.Positions {
				if p == n.Positions[i] {
					found = bytes.Equal(leaf.Word(j, w, nil), word)
					break
				}
			}
			if !found {
				t.Fatalf("position %d not found under its word after round trip", n.Positions[i])
			}
		}
	})
}

func TestFlattenEmptyTree(t *testing.T) {
	s := newSchema(t)
	tr, _ := New(s, 16)
	b := encode(t, tr)
	if len(b) != 8 {
		t.Fatalf("empty tree encoded to %d bytes, want the two zero counts", len(b))
	}
	back, err := Decode(s, 16, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Stats(); got.Leaves != 0 || got.Series != 0 {
		t.Fatalf("decoded empty tree has stats %+v", got)
	}
	if _, err := Decode(s, 16, 1, b); err == nil {
		t.Fatal("empty tree accepted for one series")
	}
}

// nodeOffsets walks a tree section by its layout and returns where each
// node starts.
func nodeOffsets(b []byte, w int) []int {
	count := int(binary.LittleEndian.Uint32(b[4:]))
	off := 8 + 8*int(binary.LittleEndian.Uint32(b))
	offs := make([]int, count)
	for i := range offs {
		offs[i] = off
		off += 1 + 2*w
		if b[offs[i]]&flagLeaf != 0 {
			off += 4 + int(binary.LittleEndian.Uint32(b[off:]))*(w+4)
		} else {
			off += 9
		}
	}
	return offs
}

// TestUnflattenRejectsCorruption: each structurally invalid mutation of a
// valid tree section must be rejected, never panic or build a broken tree.
func TestUnflattenRejectsCorruption(t *testing.T) {
	const entries = 1200
	tr := buildRandomTree(t, entries, 8, 16)
	s, w := tr.Schema, tr.Schema.Segments
	valid := encode(t, tr)
	offs := nodeOffsets(valid, w)
	internal, leaf := -1, -1 // an internal node, and a leaf with two entries
	for i, o := range offs {
		switch {
		case valid[o]&flagLeaf == 0 && internal < 0:
			internal = i
		case valid[o]&flagLeaf != 0 && binary.LittleEndian.Uint32(valid[o+1+2*w:]) >= 2 && leaf < 0:
			leaf = i
		}
	}
	if internal < 0 || leaf < 0 || binary.LittleEndian.Uint32(valid) < 2 {
		t.Fatal("test tree needs two roots, an internal node and a leaf of two entries")
	}
	put := func(b []byte, at, v int) { binary.LittleEndian.PutUint32(b[at:], uint32(v)) }
	get := func(b []byte, at int) int { return int(binary.LittleEndian.Uint32(b[at:])) }
	links := offs[internal] + 1 + 2*w          // split segment, then left and right
	words := offs[leaf] + 1 + 2*w + 4          // the leaf's first word byte
	positions := words + get(valid, words-4)*w // the leaf's first position

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"root slot out of range", func(b []byte) []byte { put(b, 8, s.RootFanout()); return b }},
		{"negative root slot", func(b []byte) []byte { put(b, 8, -1); return b }},
		{"duplicate root slot", func(b []byte) []byte { put(b, 16, get(b, 8)); return b }},
		{"root node index out of range", func(b []byte) []byte { put(b, 12, len(offs)); return b }},
		{"second root not after the first subtree", func(b []byte) []byte { put(b, 20, get(b, 20)-1); return b }},
		{"roots/nodes length mismatch", func(b []byte) []byte { put(b, 0, get(b, 0)-1); return b }},
		{"node count long", func(b []byte) []byte { put(b, 4, len(offs)+1); return b }},
		{"node count short", func(b []byte) []byte { put(b, 4, len(offs)-1); return b }},
		{"child before parent", func(b []byte) []byte { put(b, links+1, internal); return b }},
		{"child out of range", func(b []byte) []byte { put(b, links+5, len(offs)); return b }},
		{"right child inside the left subtree", func(b []byte) []byte { put(b, links+5, internal+1); return b }},
		{"split segment out of range", func(b []byte) []byte { b[links] = uint8(w); return b }},
		{"wrong symbol width", func(b []byte) []byte { o := offs[0] + 1; return append(b[:o:o], b[o+4:]...) }},
		{"leaf words/positions mismatch", func(b []byte) []byte { put(b, words-4, get(b, words-4)+1); return b }},
		{"internal node with entries", func(b []byte) []byte { b[offs[internal]] |= flagLeaf; return b }},
		{"unknown node flag", func(b []byte) []byte { b[offs[0]] |= 1 << 2; return b }},
		{"root summary not its slot", func(b []byte) []byte { b[offs[0]+1] ^= 1; return b }},
		{"bits past CardBits", func(b []byte) []byte { b[offs[0]+1+w] = uint8(s.CardBits + 1); return b }},
		{"child summary not derived at the split", func(b []byte) []byte {
			b[offs[internal+1]+1+int(b[links])] ^= 1
			return b
		}},
		{"child summary changed off the split", func(b []byte) []byte {
			b[offs[internal+1]+1+(int(b[links])+1)%w] ^= 1
			return b
		}},
		{"leaf word outside the leaf's prefix", func(b []byte) []byte { b[words] ^= 0x80; return b }},
		{"duplicate leaf position", func(b []byte) []byte { copy(b[positions+4:], b[positions:positions+4]); return b }},
		{"leaf position out of range", func(b []byte) []byte { put(b, positions, entries); return b }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(s, tr.LeafCapacity, entries, tc.mutate(bytes.Clone(valid)))
			if err == nil {
				t.Fatal("corrupt tree section accepted")
			}
		})
	}
	for _, n := range []int{entries - 1, entries + 1} {
		if _, err := Decode(s, tr.LeafCapacity, n, valid); err == nil {
			t.Errorf("%d entries accepted for a tree of %d", n, entries)
		}
	}
	for _, b := range [][]byte{nil, valid[:7]} {
		if _, err := Decode(s, tr.LeafCapacity, entries, b); err == nil {
			t.Errorf("%d-byte section accepted", len(b))
		}
	}
}

// TestDecodeChecksRootKeyWidth: the root key width k is read from the
// first root's summary, so a section whose roots do not all carry exactly
// k leading one-bit segments, or whose slot does not fit k bits, is
// rejected.
func TestDecodeChecksRootKeyWidth(t *testing.T) {
	const entries, k = 1200, 7
	tr := buildRandomTree(t, entries, 8, k)
	w := tr.Schema.Segments
	valid := encode(t, tr)
	if _, err := Decode(tr.Schema, tr.LeafCapacity, entries, valid); err != nil {
		t.Fatal(err)
	}
	offs := nodeOffsets(valid, w)
	roots := int(binary.LittleEndian.Uint32(valid))
	if roots < 2 {
		t.Fatal("test tree needs two roots")
	}
	second := offs[binary.LittleEndian.Uint32(valid[20:])] // the second root's node
	bits := func(node int) int { return node + 1 + w }     // a node's bits, after flags and symbols
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"slot past 2^k", func(b []byte) { binary.LittleEndian.PutUint32(b[8+8*(roots-1):], 1<<k) }},
		{"a one-bit segment after a zero-bit one", func(b []byte) { b[bits(offs[0])+k+1] = 1 }},
		{"a two-bit key segment", func(b []byte) { b[bits(offs[0])+1] = 2 }},
		{"first root keyed on k+1 segments, the others on k", func(b []byte) { b[bits(offs[0])+k] = 1 }},
		{"second root keyed on k+1 segments", func(b []byte) { b[bits(second)+k] = 1 }},
		{"second root keyed on k−1 segments", func(b []byte) { b[bits(second)+k-1] = 0 }},
	} {
		b := bytes.Clone(valid)
		tc.mutate(b)
		if _, err := Decode(tr.Schema, tr.LeafCapacity, entries, b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// rootLeaf returns a fresh empty leaf carrying root slot l's summary,
// without placing it in the tree.
func rootLeaf(tr *Tree, l int) *Node {
	n := tr.EnsureRoot(l)
	tr.roots[l] = nil
	return n
}

// TestUnflattenOverfullLeaf: a leaf over capacity is only legal when marked
// unsplittable.
func TestUnflattenOverfullLeaf(t *testing.T) {
	s := newSchema(t)
	w, entries := s.Segments, 5
	tr, _ := New(s, entries-1)
	n := rootLeaf(tr, 0)
	n.Words, n.Stride, n.Size = make([]uint8, entries*w), entries, entries
	n.Positions = []int32{0, 1, 2, 3, 4}
	tr.roots[0] = n
	if _, err := Decode(s, entries-1, entries, encode(t, tr)); err == nil {
		t.Fatal("overfull splittable leaf accepted")
	}
	n.unsplittable = true
	if _, err := Decode(s, entries-1, entries, encode(t, tr)); err != nil {
		t.Fatalf("overfull unsplittable leaf rejected: %v", err)
	}
}

// TestDecodeRejectsDeepChain: a chain of internal nodes deeper than
// w·(CardBits−1)+1 is rejected, even when each child refines its parent's
// split segment correctly (here every child resets the other segments,
// which an unbounded chain needs).
func TestDecodeRejectsDeepChain(t *testing.T) {
	s := newSchema(t)
	w := s.Segments
	tr, _ := New(s, 8)
	top := rootLeaf(tr, 0)
	n := top
	for depth := 1; depth <= w*(s.CardBits-1)+2; depth++ {
		n.SplitSegment = depth % 2
		child := func(bit uint8) *Node {
			c := rootLeaf(tr, 0)
			c.Bits[n.SplitSegment], c.Symbols[n.SplitSegment] = n.Bits[n.SplitSegment]+1, n.Symbols[n.SplitSegment]<<1|bit
			return c
		}
		n.Left, n.Right = child(0), child(1)
		n = n.Left
	}
	tr.roots[0] = top
	if _, err := Decode(s, 8, 0, encode(t, tr)); err == nil {
		t.Fatal("over-deep chain accepted")
	}
}
