package tree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isax"
)

// Node flags of the tree section (see Decode for the layout).
const (
	flagLeaf         = 1 << 0
	flagUnsplittable = 1 << 1
)

// AppendBinary appends the tree section encoding of t to b (layout at
// Decode): the non-empty root subtrees in slot order, each node in
// preorder.
func (t *Tree) AppendBinary(b []byte) ([]byte, error) {
	w := t.Schema.Segments
	start, roots := len(b), 0
	for _, r := range t.roots {
		if r != nil {
			roots++
		}
	}
	// The counts and the root list hold node indices known only once the
	// nodes are written; reserve them and fill them in as the walk goes.
	b = append(b, make([]byte, 8+8*roots)...)
	put := func(at int, v int) { binary.LittleEndian.PutUint32(b[at:], uint32(v)) }
	next := 0
	var enc func(n *Node) error
	enc = func(n *Node) error {
		if len(n.Symbols) != w || len(n.Bits) != w {
			return fmt.Errorf("tree: node %d has %d/%d summary segments, want %d", next, len(n.Symbols), len(n.Bits), w)
		}
		next++
		var flags uint8
		if n.IsLeaf() {
			flags |= flagLeaf
		}
		if n.unsplittable {
			flags |= flagUnsplittable
		}
		b = append(append(append(b, flags), n.Symbols...), n.Bits...)
		if n.IsLeaf() {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Positions)))
			for s := 0; s < w; s++ {
				b = append(b, n.Col(s)...)
			}
			for _, p := range n.Positions {
				b = binary.LittleEndian.AppendUint32(b, uint32(p))
			}
			return nil
		}
		b = append(b, uint8(n.SplitSegment), 0, 0, 0, 0, 0, 0, 0, 0)
		at := len(b) - 8
		put(at, next)
		if err := enc(n.Left); err != nil {
			return err
		}
		put(at+4, next)
		return enc(n.Right)
	}
	r := 0
	for slot, n := range t.roots {
		if n == nil {
			continue
		}
		put(start+8+8*r, slot)
		put(start+12+8*r, next)
		if err := enc(n); err != nil {
			return nil, err
		}
		r++
	}
	put(start, roots)
	put(start+4, next)
	return b, nil
}

// Decode rebuilds a tree over schema from its tree section b, which
// must index exactly entries series with positions [0, entries). The
// layout (all integers little-endian, w = schema.Segments):
//
//	uint32 root count, uint32 node count
//	per root:  uint32 slot, uint32 node index
//	per node (preorder):
//	  uint8 flags (bit 0: leaf, bit 1: unsplittable)
//	  w×uint8 symbols, w×uint8 bits
//	  internal: uint8 split segment, uint32 left, uint32 right
//	  leaf:     uint32 entry count, count×w word bytes, count×uint32 positions
//
// The count×w leaf word bytes are segment-major: w columns of count
// symbols each, the in-memory scan layout, so leaf words and node
// summaries alias b (which must outlive the tree) instead of being copied.
//
// Structure is checked by position in the stream: a left child is the
// next node, a right child the node after its sibling's subtree, and the
// root subtrees follow one another with slots ascending, so no node is
// shared or left over. Every node must pass the per-node invariants of
// CheckInvariants, and every position in [0, entries) must appear in
// exactly one leaf. The root's key width k is read from the root
// summaries, so a section loads with the k it was built at.
func Decode(schema *isax.Schema, leafCapacity, entries int, b []byte) (*Tree, error) {
	if schema == nil {
		return nil, fmt.Errorf("tree: nil schema")
	}
	w := schema.Segments
	if len(b) < 8 {
		return nil, fmt.Errorf("tree: %d-byte section has no counts", len(b))
	}
	roots, count := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	// Every node takes at least 2w+5 bytes and every root 8, so the counts
	// cannot make the slabs below outgrow the section.
	if uint64(roots) > uint64(count) || 8+8*uint64(roots)+uint64(count)*uint64(2*w+5) > uint64(len(b)) {
		return nil, fmt.Errorf("tree: %d roots and %d nodes cannot fit a %d-byte section", roots, count, len(b))
	}
	// The root key width is not stored: it is the number of leading
	// one-bit segments of the first root's summary, and checkNode holds
	// every root to it.
	k := w
	if roots > 0 {
		k = 0
		for _, bits := range b[8+8*int(roots)+1+w:][:w] {
			if bits != 1 {
				break
			}
			k++
		}
	}
	t, err := NewRooted(schema, leafCapacity, k)
	if err != nil {
		return nil, err
	}
	d := decoder{
		t:         t,
		b:         b,
		off:       8 + 8*int(roots),
		nodes:     make([]Node, count),
		positions: make([]int32, entries),
		seen:      make([]uint64, (entries+63)/64),
	}
	prev := -1
	for r := 0; r < int(roots); r++ {
		slot := int(binary.LittleEndian.Uint32(b[8+8*r:]))
		if slot <= prev || slot >= t.RootCount() {
			return nil, fmt.Errorf("tree: root slot %d after %d, want ascending in [0,%d)", slot, prev, t.RootCount())
		}
		if err := d.expect(binary.LittleEndian.Uint32(b[12+8*r:]), "root"); err != nil {
			return nil, err
		}
		if t.roots[slot], err = d.node(nil, slot, false); err != nil {
			return nil, err
		}
		prev = slot
	}
	switch {
	case d.next != len(d.nodes):
		return nil, fmt.Errorf("tree: %d of %d nodes reachable", d.next, len(d.nodes))
	case d.off != len(b):
		return nil, fmt.Errorf("tree: %d trailing bytes after the nodes", len(b)-d.off)
	case d.used != entries:
		return nil, fmt.Errorf("tree: leaves hold %d entries for %d series", d.used, entries)
	}
	return t, nil
}

// decoder reads the nodes of one tree section in order into one slab.
type decoder struct {
	t         *Tree
	b         []byte
	off       int      // next unread byte
	nodes     []Node   // slab; nodes[:next] are decoded
	next      int      // index of the next node in the stream
	positions []int32  // slab of leaf positions; positions[:used] are taken
	used      int      // leaf entries decoded so far
	seen      []uint64 // bitset over positions already seen
}

// take consumes n bytes.
func (d *decoder) take(n int, what string) ([]byte, error) {
	if n < 0 || len(d.b)-d.off < n {
		return nil, fmt.Errorf("tree: section ends inside %s of node %d", what, d.next-1)
	}
	d.off += n
	return d.b[d.off-n : d.off : d.off], nil
}

// expect checks that a stored node index names the next node in the
// stream, the only place a root or child may be.
func (d *decoder) expect(idx uint32, what string) error {
	if uint64(idx) != uint64(d.next) || d.next >= len(d.nodes) {
		return fmt.Errorf("tree: %s node index %d, want the next node %d of %d", what, idx, d.next, len(d.nodes))
	}
	return nil
}

// node decodes the next node and its subtree. parent is nil for the root
// child at slot; right says which child of parent it is. Each child adds
// one bit to its parent's summary (checkNode), so the recursion is at
// most w·CardBits−k+1 deep.
func (d *decoder) node(parent *Node, slot int, right bool) (*Node, error) {
	w := d.t.Schema.Segments
	n := &d.nodes[d.next]
	d.next++
	head, err := d.take(1+2*w, "summary")
	if err != nil {
		return nil, err
	}
	flags := head[0]
	if flags&^(flagLeaf|flagUnsplittable) != 0 {
		return nil, fmt.Errorf("tree: node %d has unknown flags %#x", d.next-1, flags)
	}
	n.Symbols, n.Bits = head[1:1+w:1+w], head[1+w:]
	n.unsplittable = flags&flagUnsplittable != 0
	if flags&flagLeaf == 0 {
		body, err := d.take(9, "child links")
		if err != nil {
			return nil, err
		}
		n.SplitSegment = int(body[0])
		if err := d.expect(binary.LittleEndian.Uint32(body[1:]), "left"); err != nil {
			return nil, err
		}
		n.Left = &d.nodes[d.next] // set before the check, which tells leaves by Left
		if err := d.t.checkNode(n, parent, slot, right); err != nil {
			return nil, err
		}
		if _, err := d.node(n, slot, false); err != nil {
			return nil, err
		}
		if err := d.expect(binary.LittleEndian.Uint32(body[5:]), "right"); err != nil {
			return nil, err
		}
		if n.Right, err = d.node(n, slot, true); err != nil {
			return nil, err
		}
		n.Size = n.Left.Size + n.Right.Size
		return n, nil
	}
	head, err = d.take(4, "entry count")
	if err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(head)
	if uint64(count) > uint64(len(d.positions)-d.used) {
		return nil, fmt.Errorf("tree: leaf %d claims %d entries, %d series left", d.next-1, count, len(d.positions)-d.used)
	}
	c := int(count)
	if n.Words, err = d.take(c*w, "words"); err != nil {
		return nil, err
	}
	raw, err := d.take(4*c, "positions")
	if err != nil {
		return nil, err
	}
	n.Stride, n.Size = c, c
	n.Positions = d.positions[d.used : d.used+c : d.used+c]
	d.used += c
	seen, pos, entries := d.seen, n.Positions, uint64(len(d.positions))
	for i := range pos {
		p := binary.LittleEndian.Uint32(raw[4*i:])
		if uint64(p) >= entries || seen[p/64]&(1<<(p%64)) != 0 {
			return nil, fmt.Errorf("tree: leaf %d position %d out of range [0,%d) or seen twice", d.next-1, p, entries)
		}
		seen[p/64] |= 1 << (p % 64)
		pos[i] = int32(p)
	}
	return n, d.t.checkNode(n, parent, slot, right)
}
