// Package tree implements the iSAX index tree shared by MESSI and the
// ParIS baselines (Figure 1(d) of the paper): a root with up to 2^w
// children (one per combination of the segments' top bits), binary internal
// nodes, and leaves holding <iSAX word, series position> pairs.
//
// A leaf that exceeds its capacity splits: one segment's cardinality is
// promoted by one bit — the segment chosen is the one producing the most
// balanced redistribution (the iSAX2.0 policy cited by the paper) — and the
// entries are redistributed to the two refined children.
//
// The tree itself is not internally synchronized. MESSI's construction
// guarantees each root subtree is owned by exactly one worker at a time, so
// no locks are needed; the query phase only reads. Callers that need
// different sharing (none in this repository) must synchronize externally.
package tree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isax"
)

// Node is a tree node. Exactly one of the following holds:
//   - leaf: Left == Right == nil; Words/Positions hold the entries;
//   - internal: Left and Right are non-nil and the entry storage is empty.
//
// Leaf words are stored segment-major (structure-of-arrays): Words holds
// one column per segment, each Stride bytes long, so column seg occupies
// Words[seg*Stride : seg*Stride+LeafLen()]. Query-time leaf scans stream
// whole columns against per-query distance-table rows in tight,
// compiler-vectorizable loops instead of gathering one w-byte word per
// entry — the cache-conscious summary layout of the paper's SIMD kernels
// (and of the journal version's in-memory follow-up).
type Node struct {
	Symbols []uint8 // per-segment symbol at this node's cardinality
	Bits    []uint8 // per-segment cardinality bits (0 < bits <= CardBits)

	SplitSegment int // segment refined to create the children (internal only)
	Left, Right  *Node

	Words     []uint8 // leaf entries: segment-major columns, see type comment
	Stride    int     // allocated column length (≥ LeafLen; 0 for empty leaves)
	Positions []int32 // leaf entries: series positions
	Size      int     // series under this node (leaf: len(Positions))

	unsplittable bool // every segment already at max cardinality
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// LeafLen reports the number of entries stored in a leaf.
func (n *Node) LeafLen() int { return len(n.Positions) }

// Col returns segment seg's symbol column (one byte per leaf entry, a
// view). The hot-path operand of segment-major leaf scans.
func (n *Node) Col(seg int) []uint8 {
	return n.Words[seg*n.Stride : seg*n.Stride+len(n.Positions)]
}

// Word gathers leaf entry i's full-precision word into dst (allocated
// when too small) and returns it. Words live segment-major, so this is a
// strided gather — fine for spot lookups and invariant checks; hot loops
// stream columns via Col instead.
func (n *Node) Word(i, w int, dst []uint8) []uint8 {
	if cap(dst) < w {
		dst = make([]uint8, w)
	}
	dst = dst[:w]
	for s := 0; s < w; s++ {
		dst[s] = n.Words[s*n.Stride+i]
	}
	return dst
}

// appendEntry adds one <word, position> pair to a leaf's columns,
// growing the column stride when full.
func (n *Node) appendEntry(word []uint8, pos int32, w int) {
	count := len(n.Positions)
	if count == n.Stride {
		n.grow(w)
	}
	for s := 0; s < w; s++ {
		n.Words[s*n.Stride+count] = word[s]
	}
	n.Positions = append(n.Positions, pos)
}

// grow reallocates the leaf's columns at double the stride (min 16) and
// recopies the occupied prefixes.
func (n *Node) grow(w int) {
	stride := n.Stride * 2
	if stride < 16 {
		stride = 16
	}
	words := make([]uint8, w*stride)
	count := len(n.Positions)
	for s := 0; s < w; s++ {
		copy(words[s*stride:], n.Words[s*n.Stride:s*n.Stride+count])
	}
	n.Words, n.Stride = words, stride
}

// Tree is an iSAX index tree over a fixed schema.
type Tree struct {
	Schema       *isax.Schema
	LeafCapacity int
	roots        []*Node // one slot per root subtree; nil when empty
}

// New creates an empty tree. leafCapacity must be positive.
func New(schema *isax.Schema, leafCapacity int) (*Tree, error) {
	if schema == nil {
		return nil, fmt.Errorf("tree: nil schema")
	}
	if leafCapacity <= 0 {
		return nil, fmt.Errorf("tree: non-positive leaf capacity %d", leafCapacity)
	}
	return &Tree{
		Schema:       schema,
		LeafCapacity: leafCapacity,
		roots:        make([]*Node, schema.RootFanout()),
	}, nil
}

// Root returns the root child at slot l (nil when empty).
func (t *Tree) Root(l int) *Node { return t.roots[l] }

// RootCount returns the number of root slots (the fanout).
func (t *Tree) RootCount() int { return len(t.roots) }

// EnsureRoot returns the root child for slot l, creating it (as an empty
// leaf whose per-segment summaries are the top bit of each symbol) on first
// use. Callers must guarantee exclusive access to slot l while building.
func (t *Tree) EnsureRoot(l int) *Node {
	if n := t.roots[l]; n != nil {
		return n
	}
	w := t.Schema.Segments
	n := &Node{
		Symbols: make([]uint8, w),
		Bits:    make([]uint8, w),
	}
	for i := 0; i < w; i++ {
		n.Bits[i] = 1
		n.Symbols[i] = uint8(l>>(w-1-i)) & 1
	}
	t.roots[l] = n
	return n
}

// Insert adds a <word, position> entry under the given root child,
// splitting full leaves on the way (Algorithm 4, lines 7-11). The word
// must belong to that root subtree (callers route via Schema.RootIndex).
func (t *Tree) Insert(root *Node, word []uint8, pos int32) {
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

// childFor routes a word below an internal node: the next bit of the split
// segment's symbol selects the left (0) or right (1) child.
func (t *Tree) childFor(n *Node, word []uint8) *Node {
	seg := n.SplitSegment
	childBits := n.Bits[seg] + 1
	bit := (word[seg] >> (uint8(t.Schema.CardBits) - childBits)) & 1
	if bit == 0 {
		return n.Left
	}
	return n.Right
}

// split promotes one segment of a full leaf by one bit, chooses the most
// balanced segment, creates the two refined children and redistributes the
// entries. If every segment is already at full cardinality the node is
// marked unsplittable and remains a leaf.
func (t *Tree) split(n *Node) {
	w := t.Schema.Segments
	cardBits := uint8(t.Schema.CardBits)
	count := len(n.Positions)

	bestSeg := -1
	bestImbalance := count + 1
	for seg := 0; seg < w; seg++ {
		if n.Bits[seg] >= cardBits {
			continue
		}
		shift := cardBits - (n.Bits[seg] + 1)
		ones := 0
		for _, sym := range n.Col(seg) {
			ones += int((sym >> shift) & 1)
		}
		imbalance := count - 2*ones
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if imbalance < bestImbalance {
			bestImbalance = imbalance
			bestSeg = seg
		}
	}
	if bestSeg < 0 {
		n.unsplittable = true
		return
	}

	seg := bestSeg
	childBits := n.Bits[seg] + 1
	shift := cardBits - childBits
	splitCol := n.Col(seg)
	ones := 0
	for _, sym := range splitCol {
		ones += int((sym >> shift) & 1)
	}
	makeChild := func(bit uint8, size int) *Node {
		c := &Node{
			Symbols:   make([]uint8, w),
			Bits:      make([]uint8, w),
			Positions: make([]int32, 0, size),
			Size:      size,
		}
		copy(c.Symbols, n.Symbols)
		copy(c.Bits, n.Bits)
		c.Bits[seg] = childBits
		c.Symbols[seg] = n.Symbols[seg]<<1 | bit
		if size > 0 {
			c.Words = make([]uint8, w*size)
			c.Stride = size
		}
		return c
	}
	left, right := makeChild(0, count-ones), makeChild(1, ones)
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
	n.SplitSegment = seg
	n.Left, n.Right = left, right
	n.Words, n.Positions, n.Stride = nil, nil, 0
}

// DescendToLeaf follows a word's bits from a root child down to the leaf
// that would store it — the approximate-search descent (Figure 4(a)).
func (t *Tree) DescendToLeaf(root *Node, word []uint8) *Node {
	n := root
	for !n.IsLeaf() {
		n = t.childFor(n, word)
	}
	return n
}

// ForEachLeaf visits every leaf under every root child.
func (t *Tree) ForEachLeaf(fn func(n *Node)) {
	for _, r := range t.roots {
		if r != nil {
			forEachLeaf(r, fn)
		}
	}
}

func forEachLeaf(n *Node, fn func(*Node)) {
	if n.IsLeaf() {
		fn(n)
		return
	}
	forEachLeaf(n.Left, fn)
	forEachLeaf(n.Right, fn)
}

// Stats summarizes tree shape for diagnostics and experiments.
type Stats struct {
	Series        int // total entries stored
	RootChildren  int // non-empty root slots
	InternalNodes int
	Leaves        int
	MaxDepth      int // root child = depth 1
	MaxLeafFill   int // largest leaf entry count
}

// Stats walks the tree and returns shape statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		if n.IsLeaf() {
			s.Leaves++
			s.Series += n.LeafLen()
			if n.LeafLen() > s.MaxLeafFill {
				s.MaxLeafFill = n.LeafLen()
			}
			return
		}
		s.InternalNodes++
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	for _, r := range t.roots {
		if r != nil {
			s.RootChildren++
			walk(r, 1)
		}
	}
	return s
}

// CheckInvariants validates the structural invariants of the tree: those
// of every node (see checkNode), size bookkeeping, and both children of
// every internal node. It is meant for tests and costs a full walk.
func (t *Tree) CheckInvariants() error {
	var check func(n, parent *Node, slot int, right bool) (int, error)
	check = func(n, parent *Node, slot int, right bool) (int, error) {
		if err := t.checkNode(n, parent, slot, right); err != nil {
			return 0, err
		}
		if n.IsLeaf() {
			if n.Size != n.LeafLen() {
				return 0, fmt.Errorf("tree: leaf size %d != entries %d under root %d", n.Size, n.LeafLen(), slot)
			}
			return n.Size, nil
		}
		if n.Right == nil {
			return 0, fmt.Errorf("tree: internal node missing a child under root %d", slot)
		}
		ln, err := check(n.Left, n, slot, false)
		if err != nil {
			return 0, err
		}
		rn, err := check(n.Right, n, slot, true)
		if err != nil {
			return 0, err
		}
		if n.Size != ln+rn {
			return 0, fmt.Errorf("tree: internal size %d != children sum %d under root %d", n.Size, ln+rn, slot)
		}
		return n.Size, nil
	}
	for l, r := range t.roots {
		if r != nil {
			if _, err := check(r, nil, l, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkNode validates the invariants of n that need only n and its
// parent, which Decode checks for every node it reads: a root child's
// summary (parent nil) is the one-bit prefix of its slot; a child's is
// its parent's with the split segment refined by one bit, 0 for the left
// child and 1 for the right, to at most CardBits bits (so depth is
// bounded by w·(CardBits−1)+1); a split segment is in [0,w); and a
// leaf's storage is shaped by its stride, within capacity unless
// unsplittable, with every word under the leaf's summary.
func (t *Tree) checkNode(n, parent *Node, slot int, right bool) error {
	w, card := t.Schema.Segments, uint8(t.Schema.CardBits)
	var sym, bits [isax.MaxSegments]uint8
	if parent == nil {
		for s := 0; s < w; s++ {
			sym[s], bits[s] = uint8(slot>>(w-1-s))&1, 1
		}
	} else {
		copy(sym[:], parent.Symbols)
		copy(bits[:], parent.Bits)
		s := parent.SplitSegment
		sym[s], bits[s] = sym[s]<<1, bits[s]+1
		if right {
			sym[s] |= 1
		}
		if bits[s] > card {
			return fmt.Errorf("tree: node under root %d refines segment %d past %d bits", slot, s, card)
		}
	}
	if !bytes.Equal(n.Symbols, sym[:w]) || !bytes.Equal(n.Bits, bits[:w]) {
		return fmt.Errorf("tree: node under root %d has summary %v at bits %v, not its parent's refined by one bit",
			slot, n.Symbols, n.Bits)
	}
	if !n.IsLeaf() {
		if n.SplitSegment < 0 || n.SplitSegment >= w {
			return fmt.Errorf("tree: node under root %d splits segment %d of %d", slot, n.SplitSegment, w)
		}
		return nil
	}
	if n.Right != nil {
		return fmt.Errorf("tree: half-internal node under root %d", slot)
	}
	if len(n.Words) != w*n.Stride || len(n.Positions) > n.Stride {
		return fmt.Errorf("tree: leaf storage mismatch under root %d", slot)
	}
	if len(n.Positions) > t.LeafCapacity && !n.unsplittable {
		return fmt.Errorf("tree: splittable leaf holds %d > capacity %d", len(n.Positions), t.LeafCapacity)
	}
	for s := 0; s < w; s++ {
		if !underPrefix(n.Col(s), n.Symbols[s], card-n.Bits[s]) {
			return fmt.Errorf("tree: leaf word under root %d does not match the node prefix in segment %d", slot, s)
		}
	}
	return nil
}

// underPrefix reports whether every symbol of col shifted right by shift
// equals prefix, eight symbols per load: a symbol is under the prefix
// exactly when it differs from prefix<<shift only in its low shift bits.
func underPrefix(col []uint8, prefix, shift uint8) bool {
	const ones = 0x0101010101010101
	base, high := uint64(prefix<<shift)*ones, uint64(0xFF<<shift&0xFF)*ones
	var diff uint64
	if len(col) < 8 {
		for _, c := range col {
			diff |= uint64(c ^ uint8(base))
		}
		return diff&high == 0
	}
	for i := 0; i < len(col)-8; i += 8 {
		diff |= binary.LittleEndian.Uint64(col[i:]) ^ base
	}
	// The last eight symbols, overlapping the loop's final load.
	diff |= binary.LittleEndian.Uint64(col[len(col)-8:]) ^ base
	return diff&high == 0
}
