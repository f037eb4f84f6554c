package tree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isax"
)

// insertRef is the incremental insert Insert replaced, kept as the
// reference Insert and BuildRoot are checked against: it adds a <word,
// position> entry under the given root child, splitting full leaves on the
// way (Algorithm 4, lines 7-11). The word must belong to that root subtree
// (callers route via RootKey).
func (t *Tree) insertRef(root *Node, word []uint8, pos int32) {
	w := t.Schema.Segments
	n := root
	for {
		n.Size++
		if !n.IsLeaf() {
			n = t.childFor(n, word)
			continue
		}
		if len(n.Positions) < t.LeafCapacity || n.unsplittable {
			n.appendEntry(word, pos, w)
			return
		}
		// Full leaf: split it, then continue the descent into the
		// appropriate new child ("while targetLeaf is full").
		n.Size-- // split bookkeeping recounts the node itself
		t.split(n)
		if n.unsplittable {
			// Split was impossible; store here after all.
			n.Size++
			n.appendEntry(word, pos, w)
			return
		}
		n.Size++
		n = t.childFor(n, word)
	}
}

// split promotes one segment of a full leaf by one bit, chooses the most
// balanced segment, creates the two refined children and redistributes the
// entries. If every segment is already at full cardinality the node is
// marked unsplittable and remains a leaf.
func (t *Tree) split(n *Node) {
	w, shifts, count := t.Schema.Segments, t.nextBits(n), len(n.Positions)
	var ones [isax.MaxSegments]int
	for seg := 0; seg < w; seg++ {
		for _, sym := range n.Col(seg) {
			ones[seg] += int(sym>>shifts[seg]) & 1
		}
	}
	seg := t.splitSegment(n, count, &ones)
	if seg < 0 {
		n.unsplittable = true
		return
	}
	shift, splitCol := shifts[seg], n.Col(seg)
	alloc := func(c *Node, size int) *Node {
		c.Size, c.Positions = size, make([]int32, 0, size)
		if size > 0 {
			c.Words, c.Stride = make([]uint8, w*size), size
		}
		return c
	}
	left, right := alloc(t.child(n, seg, 0), count-ones[seg]), alloc(t.child(n, seg, 1), ones[seg])
	// Redistribute column by column: the split column routes each entry,
	// so every destination column is filled with one sequential pass over
	// the matching source column.
	for s := 0; s < w; s++ {
		src := n.Col(s)
		li, ri := 0, 0
		for i, sym := range src {
			if (splitCol[i]>>shift)&1 == 1 {
				right.Words[s*right.Stride+ri] = sym
				ri++
			} else {
				left.Words[s*left.Stride+li] = sym
				li++
			}
		}
	}
	for i, pos := range n.Positions {
		if (splitCol[i]>>shift)&1 == 1 {
			right.Positions = append(right.Positions, pos)
		} else {
			left.Positions = append(left.Positions, pos)
		}
	}
	n.Words, n.Positions, n.Stride = nil, nil, 0
}

// TestInsertMatchesReference: Insert, which rebuilds a full leaf with
// BuildRoot's partition, builds insertRef's tree byte for byte after every
// hundredth insert and after the last, at every root key width and leaf
// capacity — duplicates included, which split to full cardinality and
// leave unsplittable leaves that Insert then appends to.
func TestInsertMatchesReference(t *testing.T) {
	s := newSchema(t)
	w := s.Segments
	rng := rand.New(rand.NewSource(7))
	var words []uint8
	for i := 0; i < 3000; i++ {
		word := wordFromRandomSeries(rng, s)
		if i%50 == 49 {
			word = words[:w] // the first word, 60 more times
		}
		words = append(words, word...)
	}
	n := len(words) / w
	for _, k := range []int{0, 1, 7, w} {
		for _, leafCap := range []int{1, 2, 4, 16, 2000} {
			name := fmt.Sprintf("k=%d, capacity %d", k, leafCap)
			got, err := NewRooted(s, leafCap, k)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewRooted(s, leafCap, k)
			for i := 0; i < n; i++ {
				word := words[i*w : (i+1)*w]
				l := ref.RootKey(word)
				got.Insert(got.EnsureRoot(l), word, int32(i))
				ref.insertRef(ref.EnsureRoot(l), word, int32(i))
				if i%100 == 99 || i == n-1 {
					if err := sameTree(got, ref); err != nil {
						t.Fatalf("%s, after %d inserts: %v", name, i+1, err)
					}
				}
			}
		}
	}
}

// sameTree reports whether got passes CheckInvariants and encodes to
// want's bytes.
func sameTree(got, want *Tree) error {
	if err := got.CheckInvariants(); err != nil {
		return err
	}
	g, err := got.AppendBinary(nil)
	if err != nil {
		return err
	}
	if wb, _ := want.AppendBinary(nil); !bytes.Equal(g, wb) {
		return fmt.Errorf("tree encodes to %d bytes that differ from the reference's %d", len(g), len(wb))
	}
	return nil
}

// FuzzTreeBuildersAgree: BuildRoot, Insert and insertRef build the same
// tree, byte for byte, from any words. The input's first four bytes choose
// CardBits (1–8; few bits leave unsplittable leaves), w (1–16), k ∈ [0,w]
// and the leaf capacity (1–64); the rest are up to 512 words of w bytes,
// each symbol the top CardBits bits of its byte.
func FuzzTreeBuildersAgree(f *testing.F) {
	f.Add([]byte{7, 15, 16, 3, 0x12, 0x80, 0xff, 0x7f, 0x00, 0x81, 0x42})
	f.Add(append([]byte{0, 3, 2, 1}, bytes.Repeat([]byte{0xa5, 0x5a, 0xa4, 0x5b}, 40)...))
	f.Add(append([]byte{2, 7, 5, 4}, bytes.Repeat([]byte{1, 2, 3, 250, 251, 252, 9, 200}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		card, w := int(data[0])%8+1, int(data[1])%16+1
		k, leafCap := int(data[2])%(w+1), int(data[3])%64+1
		s, err := isax.NewSchema(w, w, card)
		if err != nil {
			t.Fatal(err)
		}
		words := append([]byte(nil), data[4:4+min((len(data)-4)/w, 512)*w]...)
		for i := range words {
			words[i] >>= 8 - card
		}
		ins, _ := NewRooted(s, leafCap, k)
		ref, _ := NewRooted(s, leafCap, k)
		bulk, _ := NewRooted(s, leafCap, k)
		runs, runWords := make([][]int32, ref.RootCount()), make([][]uint8, ref.RootCount())
		for i := 0; i < len(words)/w; i++ {
			word := words[i*w : (i+1)*w]
			l := ref.RootKey(word)
			ins.Insert(ins.EnsureRoot(l), word, int32(i))
			ref.insertRef(ref.EnsureRoot(l), word, int32(i))
			runs[l], runWords[l] = append(runs[l], int32(i)), append(runWords[l], word...)
		}
		for l, run := range runs {
			if len(run) > 0 {
				bulk.BuildRoot(l, runWords[l], run, make([]uint8, len(run)*w), make([]int32, len(run)))
			}
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("insertRef: %v", err)
		}
		if err := sameTree(ins, ref); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := sameTree(bulk, ref); err != nil {
			t.Fatalf("BuildRoot: %v", err)
		}
	})
}
