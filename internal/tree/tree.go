// Package tree implements the iSAX index tree shared by MESSI and the
// ParIS baselines (Figure 1(d) of the paper): a root with up to 2^k
// children (one per combination of the top bits of the first k segments),
// binary internal nodes, and leaves holding <iSAX word, series position>
// pairs. A root child carries one bit on each of those k segments and none
// on the rest. MESSI's tree is k = w; a collection of n series needs only
// the k at which a root child holds about a leaf's worth (core.Build picks
// it), and a smaller k means fewer, fuller subtrees.
//
// A node of more entries than a leaf's capacity splits: one segment's
// cardinality is promoted by one bit (from zero bits too) — the segment on
// which its first LeafCapacity entries balance best (the iSAX2.0 policy
// cited by the paper) — and its entries are partitioned stably between
// the two refined children. One routine does this: BuildRoot runs it over
// a root's whole run, and Insert over a full leaf's entries with the new
// one last, which builds the subtree a chain of splits would.
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
	Stride    int     // column length: LeafLen, more only in a leaf Insert appended to
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
	rootBits     int     // k: root children are keyed on segments 0…k−1
	roots        []*Node // one slot per root subtree; nil when empty
}

// New creates an empty tree with MESSI's root, keyed on every segment.
// leafCapacity must be positive.
func New(schema *isax.Schema, leafCapacity int) (*Tree, error) {
	if schema == nil {
		return nil, fmt.Errorf("tree: nil schema")
	}
	return NewRooted(schema, leafCapacity, schema.Segments)
}

// NewRooted creates an empty tree whose root is keyed on the top bit of
// the first rootBits segments (0 ≤ rootBits ≤ w). leafCapacity must be
// positive.
func NewRooted(schema *isax.Schema, leafCapacity, rootBits int) (*Tree, error) {
	if schema == nil {
		return nil, fmt.Errorf("tree: nil schema")
	}
	if leafCapacity <= 0 {
		return nil, fmt.Errorf("tree: non-positive leaf capacity %d", leafCapacity)
	}
	if rootBits < 0 || rootBits > schema.Segments {
		return nil, fmt.Errorf("tree: root keyed on %d of %d segments", rootBits, schema.Segments)
	}
	return &Tree{
		Schema:       schema,
		LeafCapacity: leafCapacity,
		rootBits:     rootBits,
		roots:        make([]*Node, 1<<rootBits),
	}, nil
}

// Root returns the root child at slot l (nil when empty).
func (t *Tree) Root(l int) *Node { return t.roots[l] }

// RootCount returns the number of root slots (the fanout), 2^RootBits.
func (t *Tree) RootCount() int { return len(t.roots) }

// RootBits returns k, the number of leading segments the root is keyed on.
func (t *Tree) RootBits() int { return t.rootBits }

// RootKey maps a full-precision word to its root slot: the top bit of each
// of the first k segments, segment 0 the high bit.
func (t *Tree) RootKey(word []uint8) int {
	return t.Schema.RootIndex(word) >> (t.Schema.Segments - t.rootBits)
}

// EnsureRoot returns the root child for slot l, creating it (as an empty
// leaf whose per-segment summaries are the top bit of each of the first k
// symbols, and no bits of the rest) on first use. Callers must guarantee
// exclusive access to slot l while building.
func (t *Tree) EnsureRoot(l int) *Node {
	if n := t.roots[l]; n != nil {
		return n
	}
	w, k := t.Schema.Segments, t.rootBits
	n := &Node{
		Symbols: make([]uint8, w),
		Bits:    make([]uint8, w),
	}
	for i := 0; i < k; i++ {
		n.Bits[i] = 1
		n.Symbols[i] = uint8(l>>(k-1-i)) & 1
	}
	t.roots[l] = n
	return n
}

// Insert adds a <word, position> entry under the given root child
// (Algorithm 4, lines 7-11). The word must belong to that root subtree
// (callers route via RootKey). A full leaf is rebuilt by BuildRoot's
// partition from its entries with the new one last: the subtree the chain
// of splits "while targetLeaf is full" builds, node for node.
func (t *Tree) Insert(root *Node, word []uint8, pos int32) {
	w, n := t.Schema.Segments, root
	for ; !n.IsLeaf(); n = t.childFor(n, word) {
		n.Size++
	}
	if len(n.Positions) < t.LeafCapacity || n.unsplittable {
		n.Size++
		n.appendEntry(word, pos, w)
		return
	}
	m := len(n.Positions) + 1
	words := make([]uint8, m*w)
	for i := range m - 1 {
		n.Word(i, w, words[i*w:])
	}
	copy(words[(m-1)*w:], word)
	run := append(n.Positions, pos)
	n.Words, n.Positions, n.Stride = nil, nil, 0
	// The leaves keep words; the scratch is allocated apart, so it dies
	// with the split.
	t.bulk(n, words, run, make([]uint8, m*w), make([]int32, m))
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

// nextBits returns, per segment, the shift that exposes the bit by which
// a split of n on that segment would refine it. Past full cardinality the
// shift wraps, so the bit reads 0; splitSegment skips such segments.
func (t *Tree) nextBits(n *Node) (shifts [isax.MaxSegments]uint8) {
	for seg := range t.Schema.Segments {
		shifts[seg] = uint8(t.Schema.CardBits) - n.Bits[seg] - 1
	}
	return shifts
}

// splitSegment chooses the segment a full node of count entries splits
// on, given how many entries have a 1 as each segment's next bit: the most
// balanced one, the lowest on a tie, or −1 when every segment is at full
// cardinality.
func (t *Tree) splitSegment(n *Node, count int, ones *[isax.MaxSegments]int) int {
	best, bestImbalance := -1, count+1
	for seg := 0; seg < t.Schema.Segments; seg++ {
		if n.Bits[seg] >= uint8(t.Schema.CardBits) {
			continue
		}
		imbalance := count - 2*ones[seg]
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if imbalance < bestImbalance {
			best, bestImbalance = seg, imbalance
		}
	}
	return best
}

// child splits n on seg and returns its new, empty left (bit 0) or right
// (bit 1) child, whose summary is n's with seg refined by that bit.
func (t *Tree) child(n *Node, seg int, bit uint8) *Node {
	w := t.Schema.Segments
	c := &Node{Symbols: make([]uint8, w), Bits: make([]uint8, w)}
	copy(c.Symbols, n.Symbols)
	copy(c.Bits, n.Bits)
	c.Bits[seg]++
	c.Symbols[seg] = n.Symbols[seg]<<1 | bit
	n.SplitSegment = seg
	if bit == 0 {
		n.Left = c
	} else {
		n.Right = c
	}
	return c
}

// BuildRoot builds root slot l's subtree in one pass: the subtree Insert
// builds when fed the slot's series in run order, node for node. run holds
// their positions, and words their full-precision words, entry-major in
// the same order (entry i's is words[i·w:(i+1)·w]). Both are partitioned
// in place, so each leaf owns one stretch of them: its Positions alias its
// stretch of run (capped at its length), and its stretch of words is
// rewritten into its segment-major columns (Stride = entries). scratch and
// wordScratch need room for len(run) positions and words.
//
// A node of more than LeafCapacity entries splits on the segment its first
// LeafCapacity entries balance best — those it held when Insert split it —
// and its stretch is partitioned stably by that segment's next bit, so each
// child's entries keep the order Insert fed them in.
func (t *Tree) BuildRoot(l int, words []uint8, run []int32, wordScratch []uint8, scratch []int32) {
	t.bulk(t.EnsureRoot(l), words, run, wordScratch, scratch)
}

func (t *Tree) bulk(n *Node, words []uint8, run []int32, wordScratch []uint8, scratch []int32) {
	w, m := t.Schema.Segments, len(run)
	n.Size = m
	if m > t.LeafCapacity {
		shift := t.nextBits(n)
		var ones [isax.MaxSegments]int
		for i := range t.LeafCapacity {
			for seg, sym := range words[i*w : i*w+w] {
				ones[seg] += int(sym>>shift[seg]) & 1
			}
		}
		if seg := t.splitSegment(n, t.LeafCapacity, &ones); seg >= 0 {
			zeros, high := 0, 0
			for i, p := range run {
				if word := words[i*w : i*w+w]; word[seg]>>shift[seg]&1 == 0 {
					copy(words[zeros*w:], word)
					run[zeros] = p
					zeros++
				} else {
					copy(wordScratch[high*w:], word)
					scratch[high] = p
					high++
				}
			}
			copy(words[zeros*w:], wordScratch[:high*w])
			copy(run[zeros:], scratch[:high])
			t.bulk(t.child(n, seg, 0), words[:zeros*w], run[:zeros], wordScratch, scratch)
			t.bulk(t.child(n, seg, 1), words[zeros*w:], run[zeros:], wordScratch, scratch)
			return
		}
		n.unsplittable = true
	}
	copy(wordScratch, words[:m*w])
	for i := range m {
		for s, sym := range wordScratch[i*w : i*w+w] {
			words[s*m+i] = sym
		}
	}
	n.Positions, n.Words, n.Stride = run[:m:m], words[:m*w:m*w], m
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
// summary (parent nil) is the one-bit prefix of its slot on the first k
// segments and no bits on the rest; a child's is its parent's with the
// split segment refined by one bit, 0 for the left child and 1 for the
// right, to at most CardBits bits (so depth is bounded by
// w·CardBits−k+1); a split segment is in [0,w); and a leaf's storage is
// shaped by its stride, within capacity unless unsplittable, with every
// word under the leaf's summary.
func (t *Tree) checkNode(n, parent *Node, slot int, right bool) error {
	w, card, k := t.Schema.Segments, uint8(t.Schema.CardBits), t.rootBits
	var sym, bits [isax.MaxSegments]uint8
	if parent == nil {
		for s := 0; s < k; s++ {
			sym[s], bits[s] = uint8(slot>>(k-1-s))&1, 1
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
		if parent == nil {
			return fmt.Errorf("tree: root %d has summary %v at bits %v, not its %d-bit key's",
				slot, n.Symbols, n.Bits, k)
		}
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
