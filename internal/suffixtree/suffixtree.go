// Package suffixtree implements the generalized suffix tree (GST) the
// paper's pair-generation algorithm runs on (Sections 5–6): a
// compacted trie of all suffixes of all input fragments and their
// reverse complements, built bucket-by-bucket. Suffixes are first
// partitioned into buckets by their w-length prefixes; each bucket's
// subtree is then built depth-first by recursive character
// partitioning. The portion of the tree above depth w is never needed
// (pair generation only visits nodes of string-depth ≥ ψ ≥ w), so the
// tree is represented as a forest of bucket subtrees.
//
// Masking semantics: a masked position matches nothing, including
// another masked position. During partitioning a suffix that reaches a
// masked byte detaches as a singleton leaf, so no exact match ever
// crosses a masked base. The shared end-of-string terminator groups
// identical full suffixes into one leaf, as in the paper.
package suffixtree

import (
	"cmp"
	"slices"

	"repro/internal/seq"
)

// PrevNone marks a suffix with no usable preceding character: either
// the suffix starts the string (the paper's λ class) or the preceding
// byte is masked, which can never extend a match leftwards and is
// therefore equivalent for left-maximality.
const PrevNone int8 = 4

// NumPrevClasses is the number of lset classes: A, C, G, T and λ.
const NumPrevClasses = 5

// Suffix identifies suffix Pos of sequence Sid together with the class
// of its preceding character, which is all the lset machinery needs.
type Suffix struct {
	Sid  int32
	Pos  int32
	Prev int8 // 0..3 base code, or PrevNone
}

// Access returns the bases of a sequence ID; the tree builder and the
// pair generator use it instead of a concrete store so the parallel
// construction can substitute locally fetched fragments.
// IncrementalBuilder.AddBucket calls it once per suffix of the bucket
// and reads the returned slice until AddBucket returns, so the slice
// must stay valid and unmodified until then.
type Access func(sid int32) []byte

// NoNode marks an absent node reference.
const NoNode int32 = -1

// Node is one compacted-trie node. Children form a singly linked list
// (FirstChild / NextSib). A leaf (no children) owns the suffixes
// Sufs[SufStart:SufEnd] of the Tree; internal nodes own none.
type Node struct {
	Parent     int32
	Depth      int32 // string-depth: length of the root-to-node path label
	FirstChild int32
	NextSib    int32
	SufStart   int32
	SufEnd     int32
}

// Tree is a bucket forest: the part of the generalized suffix tree at
// string-depth ≥ w.
type Tree struct {
	Nodes []Node
	Sufs  []Suffix
	Roots []int32
	W     int
}

// IsLeaf reports whether node u has no children.
func (t *Tree) IsLeaf(u int32) bool { return t.Nodes[u].FirstChild == NoNode }

// LeafSuffixes returns the suffixes attached to leaf u.
func (t *Tree) LeafSuffixes(u int32) []Suffix {
	n := &t.Nodes[u]
	return t.Sufs[n.SufStart:n.SufEnd]
}

// NumNodes returns the number of nodes in the forest.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Children calls fn for each child of u.
func (t *Tree) Children(u int32, fn func(v int32)) {
	for v := t.Nodes[u].FirstChild; v != NoNode; v = t.Nodes[v].NextSib {
		fn(v)
	}
}

// NodesByDepthDesc returns all nodes with Depth ≥ minDepth in
// decreasing string-depth order, the processing order of the pair
// generation algorithm (step S2). Ties are broken leaves-first so that
// a terminal leaf whose depth equals its parent's is processed before
// the parent. Counting sort on depth keeps this O(nodes + maxDepth).
func (t *Tree) NodesByDepthDesc(minDepth int) []int32 {
	maxDepth := 0
	for i := range t.Nodes {
		if d := int(t.Nodes[i].Depth); d > maxDepth {
			maxDepth = d
		}
	}
	// Two passes per depth: leaves first, then internal nodes.
	counts := make([]int, 2*(maxDepth+1))
	slot := func(i int) int {
		d := int(t.Nodes[i].Depth)
		s := 2 * (maxDepth - d)
		if !t.IsLeaf(int32(i)) {
			s++
		}
		return s
	}
	n := 0
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) >= minDepth {
			counts[slot(i)]++
			n++
		}
	}
	offsets := make([]int, len(counts))
	sum := 0
	for i, c := range counts {
		offsets[i] = sum
		sum += c
	}
	out := make([]int32, n)
	for i := range t.Nodes {
		if int(t.Nodes[i].Depth) >= minDepth {
			s := slot(i)
			out[offsets[s]] = int32(i)
			offsets[s]++
		}
	}
	return out
}

// EnumerateSuffixes lists every suffix of the given sequence IDs with
// its preceding-character class. Suffixes shorter than minLen are
// skipped (they cannot carry a maximal match of length ≥ minLen).
func EnumerateSuffixes(access Access, sids []int32, minLen int) []Suffix {
	var out []Suffix
	for _, sid := range sids {
		s := access(sid)
		for pos := 0; pos+minLen <= len(s); pos++ {
			out = append(out, Suffix{Sid: sid, Pos: int32(pos), Prev: prevClass(s, pos)})
		}
	}
	return out
}

func prevClass(s []byte, pos int) int8 {
	if pos == 0 {
		return PrevNone
	}
	c := seq.Code(s[pos-1])
	if c < 0 {
		return PrevNone
	}
	return int8(c)
}

// BucketKey packs the w-prefix of suffix (sid,pos); ok is false when
// the window is short or contains a masked base, in which case the
// suffix joins no bucket (it cannot begin a maximal match ≥ w).
func BucketKey(s []byte, pos, w int) (seq.Kmer, bool) {
	return seq.PackKmer(s, pos, w)
}

// Build constructs the bucket forest for the given suffixes with
// prefix length w. Suffixes whose w-window is invalid are dropped.
func Build(access Access, sufs []Suffix, w int) *Tree {
	type keyed struct {
		key seq.Kmer
		suf Suffix
	}
	ks := make([]keyed, 0, len(sufs))
	for _, sf := range sufs {
		if key, ok := BucketKey(access(sf.Sid), int(sf.Pos), w); ok {
			ks = append(ks, keyed{key, sf})
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })

	ib := NewIncrementalBuilder(w)
	ib.b.tree.Nodes = make([]Node, 0, len(ks)/2+4)
	ib.b.tree.Sufs = make([]Suffix, 0, len(ks))
	bucket := make([]Suffix, 0, 64)
	for lo := 0; lo < len(ks); {
		hi := lo
		for hi < len(ks) && ks[hi].key == ks[lo].key {
			hi++
		}
		bucket = bucket[:0]
		for i := lo; i < hi; i++ {
			bucket = append(bucket, ks[i].suf)
		}
		ib.AddBucket(access, bucket)
		lo = hi
	}
	return ib.Tree()
}

// BuildBuckets constructs subtrees for pre-grouped buckets (the
// parallel construction path, which receives its buckets from the
// redistribution step). Each bucket's suffixes must share their first
// w characters.
func BuildBuckets(access Access, buckets [][]Suffix, w int) *Tree {
	ib := NewIncrementalBuilder(w)
	for _, bucket := range buckets {
		ib.AddBucket(access, bucket)
	}
	return ib.Tree()
}

// IncrementalBuilder accumulates bucket subtrees into one forest. The
// parallel construction builds batches of buckets whose fragments are
// fetched together, so the access function may differ per AddBucket
// call (sequence bytes are needed only during that call — the finished
// tree stores no labels).
type IncrementalBuilder struct {
	b builder
}

// NewIncrementalBuilder returns a builder for a forest with bucket
// prefix length w.
func NewIncrementalBuilder(w int) *IncrementalBuilder {
	return &IncrementalBuilder{b: builder{tree: &Tree{W: w}}}
}

// AddBucket builds one bucket's subtree. The bucket's suffixes must
// share their first w characters. Suffixes are ordered canonically
// (by sequence ID, then position) first, so the tree — and therefore
// which occurrence duplicate elimination retains during pair
// generation — is identical no matter how the bucket was assembled.
// access is called once per suffix, after that sort.
func (ib *IncrementalBuilder) AddBucket(access Access, bucket []Suffix) {
	if len(bucket) == 0 {
		return
	}
	slices.SortFunc(bucket, func(a, b Suffix) int {
		if a.Sid != b.Sid {
			return cmp.Compare(a.Sid, b.Sid)
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	b := &ib.b
	b.items = b.items[:0]
	for _, sf := range bucket {
		b.items = append(b.items, item{s: access(sf.Sid)[sf.Pos:], suf: sf})
	}
	n := len(b.items)
	b.class = slices.Grow(b.class[:0], n)[:n]
	b.scratch = slices.Grow(b.scratch[:0], n)[:n]
	root := b.build(0, n, int32(b.tree.W), NoNode)
	b.tree.Roots = append(b.tree.Roots, root)
	// Drop the byte references so a spilling sweep does not pin the
	// bucket's sequences until the next bucket overwrites them.
	clear(b.items)
	clear(b.scratch)
}

// Tree returns the accumulated forest.
func (ib *IncrementalBuilder) Tree() *Tree { return ib.b.tree }

// Work returns the number of characters the builder has examined, an
// exact measure of construction work for modeled-time accounting.
func (ib *IncrementalBuilder) Work() int64 { return ib.b.work }

// item is one suffix of the bucket under construction with its bytes
// from the suffix start on, resolved once per AddBucket.
type item struct {
	s   []byte
	suf Suffix
}

// Character classes of a suffix at a string-depth, in the order build
// lays a partitioned range out: terminated suffixes, masked ones, then
// one class per base code.
const (
	classEnded = iota
	classMasked
	classBase  // classBase+c for base code c
	numClasses = classBase + 4
)

type builder struct {
	tree *Tree
	work int64 // characters examined; exact construction work measure

	// Per-bucket buffers, reused across buckets: the bucket's items,
	// each item's class at the depth being partitioned, and the scatter
	// target of the stable counting partition.
	items   []item
	class   []uint8
	scratch []item
}

func (b *builder) newNode(parent, depth int32) int32 {
	id := int32(len(b.tree.Nodes))
	b.tree.Nodes = append(b.tree.Nodes, Node{
		Parent:     parent,
		Depth:      depth,
		FirstChild: NoNode,
		NextSib:    NoNode,
		SufStart:   -1,
		SufEnd:     -1,
	})
	return id
}

// newLeaf creates a leaf owning the suffixes of items[lo:hi].
func (b *builder) newLeaf(parent, depth int32, lo, hi int) int32 {
	id := b.newNode(parent, depth)
	n := &b.tree.Nodes[id]
	n.SufStart = int32(len(b.tree.Sufs))
	for _, it := range b.items[lo:hi] {
		b.tree.Sufs = append(b.tree.Sufs, it.suf)
	}
	n.SufEnd = int32(len(b.tree.Sufs))
	return id
}

func (b *builder) attach(parent, child int32) {
	c := &b.tree.Nodes[child]
	c.Parent = parent
	c.NextSib = b.tree.Nodes[parent].FirstChild
	b.tree.Nodes[parent].FirstChild = child
}

// sharedRun returns the number of characters, from string-depth depth
// on, in which every item carries the same unmasked base: the edge
// length path compression can skip before the next branch.
func sharedRun(items []item, depth int32) int {
	ref := items[0].s[depth:]
	k := 0
	for k < len(ref) && seq.IsBase(ref[k]) {
		k++
	}
	for _, it := range items[1:] {
		s := it.s[depth:]
		j := 0
		for j < k && j < len(s) && s[j] == ref[j] {
			j++
		}
		k = j
		if k == 0 {
			break
		}
	}
	return k
}

// build constructs the subtree for items[lo:hi], which all share their
// first depth characters, and returns its node ID. The range is
// partitioned in place, so children recurse on sub-ranges.
func (b *builder) build(lo, hi int, depth int32, parent int32) int32 {
	items := b.items[lo:hi]
	if len(items) == 1 {
		// A singleton's edge extends to the end of its suffix; its
		// string-depth is the full remaining length. A masked byte in
		// the remainder cannot matter: singleton leaves generate no
		// pairs and the depth is only an ordering key, but for exact
		// semantics clamp the depth at the first masked byte.
		s := items[0].s
		end := int(depth)
		for end < len(s) && seq.IsBase(s[end]) {
			end++
		}
		b.work += int64(end - int(depth))
		return b.newLeaf(parent, int32(end), lo, hi)
	}

	// Path compression: while every suffix continues with the same
	// base the edge simply extends. Each skipped depth counts as one
	// examined character per suffix, as a classifying pass would.
	if k := sharedRun(items, depth); k > 0 {
		b.work += int64(k) * int64(len(items))
		depth += int32(k)
	}

	// Classify every suffix at depth, then scatter stably by class.
	var count [numClasses]int
	class := b.class[lo:hi]
	for i, it := range items {
		c := uint8(classEnded)
		if int(depth) < len(it.s) {
			if code := seq.Code(it.s[depth]); code < 0 {
				c = classMasked
			} else {
				c = classBase + uint8(code)
			}
		}
		class[i] = c
		count[c]++
	}
	b.work += int64(len(items))

	if count[classEnded] == len(items) {
		// Everything ends here: one leaf of identical suffixes.
		return b.newLeaf(parent, depth, lo, hi)
	}
	var start [numClasses + 1]int
	start[0] = lo
	for c := 0; c < numClasses; c++ {
		start[c+1] = start[c] + count[c]
	}
	next := start
	scratch := b.scratch
	for i, it := range items {
		scratch[next[class[i]]] = it
		next[class[i]]++
	}
	copy(items, scratch[lo:hi])

	// Branch point: the internal node, then its terminated leaf, its
	// masked singletons and its base children from T down to A.
	u := b.newNode(parent, depth)
	if start[classEnded] < start[classEnded+1] {
		b.attach(u, b.newLeaf(u, depth, start[classEnded], start[classEnded+1]))
	}
	for i := start[classMasked]; i < start[classMasked+1]; i++ {
		b.attach(u, b.newLeaf(u, depth, i, i+1))
	}
	for c := numClasses - 1; c >= classBase; c-- {
		if start[c] < start[c+1] {
			b.attach(u, b.build(start[c], start[c+1], depth+1, u))
		}
	}
	return u
}
