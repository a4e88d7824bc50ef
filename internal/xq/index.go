package xq

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// Index is the per-document acceleration structure behind the
// evaluator's fast paths: label→nodes lookup, O(1) ancestor/descendant
// tests via pre/post-order intervals, and the distinct-root-path table
// that turns document-rooted path evaluation from a full tree walk into
// a handful of DFA runs. An Index is built once per document, depends
// only on the (immutable) document, and is logically immutable after
// NewIndex returns; it holds no query state and is therefore safe to
// share across evaluators and goroutines (the artifact store relies on
// this). The only interior mutability is the mutex-guarded DFA cache
// below, which memoizes pure functions of (expression, document
// alphabet) and never changes an observable result.
type Index struct {
	doc *xmldoc.Document
	// pre/post are pre-/post-order visit clocks indexed by node ID.
	// A properly contains B iff pre[A] < pre[B] && post[B] < post[A].
	// pre also encodes document order: sorting nodes by pre reproduces
	// exactly the order a full document walk would visit them in.
	pre, post []int
	// byLabel files element/attribute nodes (document order) under the
	// document's label symbol — a slice lookup instead of a string-map
	// probe on the hot path.
	byLabel [][]*xmldoc.Node
	// alphabet is the document's sorted label set, captured once so
	// evaluators built over a shared index skip the per-session copy.
	alphabet []string
	// paths is the distinct-root-path table in learner order (see
	// SortRootPaths), which every learning session over the document
	// adopts as is.
	paths []RootPath
	// cols is the structure-of-arrays document view the compiled
	// executor walks, built in the same walk as the clocks above. DFAs
	// step over it by integer label symbol through the evaluator's
	// per-DFA symbol rows (dfaSymRow), with no string lookup.
	cols *xmldoc.Columns
	// nums and numeric are the node-value column: a node's atomized
	// number and, one bit per node ID, whether its trimmed text parses
	// as one. The string half of a value is the trimmed cols.Text span,
	// so the column holds no pointers and evaluators adopting the index
	// atomize nothing (see value).
	nums    []float64
	numeric []uint64

	// classOnce/classes lazily hold the value-class column (see
	// valueClasses), built on the compiled executor's first equality
	// probe over this document rather than inside NewIndex, where its
	// cost would land on every new document's first question.
	classOnce sync.Once
	classes   valueClasses

	// dfaMu guards the shared compiled-DFA cache. Every evaluator
	// adopting this index keeps its own L1 map (no lock on its hot path)
	// and falls through here on a miss, so an expression is compiled
	// once per document rather than once per evaluator/session.
	dfaMu sync.RWMutex
	dfas  map[string]*pathre.DFA

	// realizedOnce/realized lazily cache the DFA accepting exactly the
	// document's realized root label paths (see RealizedPathsDFA) — a
	// pure function of the path table and alphabet, shared by every
	// learning session over this document.
	realizedOnce sync.Once
	realized     *pathre.DFA
}

// dfaCacheMax bounds the shared DFA cache; adversarial query streams
// aside, real sessions revisit a few dozen expressions.
const dfaCacheMax = 1 << 12

// dfaFor returns the compiled DFA for expression p (whose render is
// key), compiling against the document alphabet on first use. Safe for
// concurrent use.
func (ix *Index) dfaFor(key string, p pathre.Expr) *pathre.DFA {
	ix.dfaMu.RLock()
	d, ok := ix.dfas[key]
	ix.dfaMu.RUnlock()
	if ok {
		return d
	}
	d = pathre.Compile(p, ix.alphabet)
	ix.dfaMu.Lock()
	if prev, ok := ix.dfas[key]; ok {
		// Another evaluator compiled it concurrently; keep one canonical
		// DFA so per-DFA symbol rows and plan pointers stay shareable.
		d = prev
	} else {
		if ix.dfas == nil {
			ix.dfas = map[string]*pathre.DFA{}
		}
		if len(ix.dfas) < dfaCacheMax {
			ix.dfas[key] = d
		}
	}
	ix.dfaMu.Unlock()
	return d
}

// pathEdge extends an interned root path (-1 for the empty path at the
// document node) by one label symbol.
type pathEdge struct {
	parent int32
	sym    int32
}

// NewIndex builds the index for doc in one document walk.
func NewIndex(doc *xmldoc.Document) *Index {
	ix := &Index{
		doc:      doc,
		pre:      make([]int, doc.NumNodes()),
		post:     make([]int, doc.NumNodes()),
		byLabel:  make([][]*xmldoc.Node, doc.NumSyms()),
		alphabet: doc.Alphabet(),
	}
	// The walk interns each distinct root path as {parent path ID, label
	// symbol}, so no root key string is ever joined.
	lookup := map[pathEdge]int32{}
	var paths []RootPath
	pathPos := func(id int32) []int32 {
		if id < 0 {
			return nil
		}
		return paths[id].Pos
	}
	cb := xmldoc.NewColumnsBuilder(doc)
	clock := 0
	var walk func(n *xmldoc.Node, pathID int32)
	walk = func(n *xmldoc.Node, pathID int32) {
		cb.Enter(n)
		ix.pre[n.ID] = clock
		clock++
		if sym := n.LabelSym(); sym != xmldoc.NoSym {
			if int(sym) >= len(ix.byLabel) {
				// A label interned after the walk began cannot occur, but
				// grow defensively so a stale NumSyms never panics.
				grown := make([][]*xmldoc.Node, sym+1)
				copy(grown, ix.byLabel)
				ix.byLabel = grown
			}
			ix.byLabel[sym] = append(ix.byLabel[sym], n)
			edge := pathEdge{parent: pathID, sym: sym}
			id, ok := lookup[edge]
			if !ok {
				id = int32(len(paths))
				parent := pathPos(pathID)
				pos := make([]int32, len(parent), len(parent)+1)
				copy(pos, parent)
				pos = append(pos, alphabetPos(ix.alphabet, n.Label()))
				paths = append(paths, RootPath{Pos: pos})
				lookup[edge] = id
			}
			paths[id].Nodes = append(paths[id].Nodes, n)
			pathID = id
		}
		for _, a := range n.Attrs {
			walk(a, pathID)
		}
		for _, c := range n.Children {
			walk(c, pathID)
		}
		ix.post[n.ID] = clock
		clock++
		cb.Leave(n)
	}
	walk(doc.DocNode(), -1)
	ix.cols = cb.Finish()
	ix.nums = make([]float64, ix.cols.Len())
	ix.numeric = make([]uint64, (ix.cols.Len()+63)/64)
	for id := range ix.nums {
		if f, ok := parseNumber(strings.TrimSpace(ix.cols.Text(id))); ok {
			ix.nums[id] = f
			ix.numeric[id/64] |= 1 << (id % 64)
		}
	}
	for i := range paths {
		// The full-slice expression keeps a stray append by a reader
		// from ever writing into the index.
		paths[i].Nodes = paths[i].Nodes[:len(paths[i].Nodes):len(paths[i].Nodes)]
	}
	SortRootPaths(paths)
	ix.paths = paths
	return ix
}

// value returns n's atomized value from the node-value column: equal
// to NodeValue(n) for every node the index was built over.
func (ix *Index) value(n *xmldoc.Node) Value {
	v := ix.valueOf(int32(n.ID))
	v.Node = n
	return v
}

// isNum reports whether node id's trimmed text parses as a number.
func (ix *Index) isNum(id int32) bool {
	return ix.numeric[id/64]&(1<<(id%64)) != 0
}

// valueOf is value by node ID, leaving the Node field nil: the compiled
// executor compares values and never reads it.
func (ix *Index) valueOf(id int32) Value {
	v := Value{Str: ix.trimmed(id)}
	if ix.isNum(id) {
		v.Num, v.IsNum = ix.nums[id], true
	}
	return v
}

// noClass is the value class of a NaN value and of a value the document
// does not hold: it equals nothing, itself included.
const noClass int32 = -1

// valueClasses numbers the document's values so that equality becomes
// an integer test: two nodes share a class iff compareValues(OpEq)
// holds for them. Numeric values are equal by Num (so "-0", "0" and
// "0.0" share a class, as do "1e3" and "1000"); all other values are
// equal by trimmed text; a NaN equals nothing and gets noClass. The
// column and its lookup tables hold no pointers and no strings.
type valueClasses struct {
	// class[id] is node id's value class.
	class []int32
	// numReps lists one representative node per numeric class, in
	// ascending Num; numeric class k is numReps[k].
	numReps []int32
	// strReps lists one representative node per non-numeric class, in
	// ascending strHash (the hash of its trimmed text); it is class
	// len(numReps)+k.
	strReps []int32
	strHash []uint32
}

// classSeed seeds the text hash every index orders its strReps by, so
// class numbers depend on the document alone: a probe table built over
// one Index of a document answers lookups through any other Index of
// the same document (evaluators adopting a shared TreePlan may each
// hold their own).
var classSeed = maphash.MakeSeed()

// valueClasses returns the document's value classes, building them on
// first use. Safe for concurrent use.
func (ix *Index) valueClasses() *valueClasses {
	ix.classOnce.Do(ix.buildValueClasses)
	return &ix.classes
}

// buildValueClasses numbers each run of equal values: numeric nodes
// sorted by Num, the others by a 32-bit hash of their trimmed text,
// with equal hashes split by text so a collision never merges two
// values.
func (ix *Index) buildValueClasses() {
	n := ix.cols.Len()
	vc := &ix.classes
	vc.class = make([]int32, n)
	// keys packs each non-numeric node as hash<<32 | id, so one integer
	// sort groups equal hashes in ID order.
	var nums []int32
	var keys []uint64
	for id := range vc.class {
		vc.class[id] = noClass
		switch {
		case !ix.isNum(int32(id)):
			keys = append(keys, classHash(ix.trimmed(int32(id)))<<32|uint64(id))
		case !math.IsNaN(ix.nums[id]):
			nums = append(nums, int32(id))
		}
	}
	slices.SortFunc(nums, func(a, b int32) int { return cmp.Compare(ix.nums[a], ix.nums[b]) })
	for i, id := range nums {
		if i == 0 || ix.nums[id] != ix.nums[nums[i-1]] {
			vc.numReps = append(vc.numReps, id)
		}
		vc.class[id] = int32(len(vc.numReps) - 1)
	}
	slices.Sort(keys)
	base := int32(len(vc.numReps))
	first := 0 // the first representative of the current hash run
	for i, key := range keys {
		h, id := key>>32, int32(uint32(key))
		if i == 0 || h != keys[i-1]>>32 {
			first = len(vc.strReps)
		}
		cl := noClass
		for k := first; k < len(vc.strReps); k++ {
			if ix.trimmed(vc.strReps[k]) == ix.trimmed(id) {
				cl = base + int32(k)
				break
			}
		}
		if cl == noClass {
			cl = base + int32(len(vc.strReps))
			vc.strReps = append(vc.strReps, id)
			vc.strHash = append(vc.strHash, uint32(h))
		}
		vc.class[id] = cl
	}
	// Copy the lookup tables out of their append-grown arrays: they live
	// as long as the index.
	vc.numReps = slices.Clone(vc.numReps)
	vc.strReps = slices.Clone(vc.strReps)
	vc.strHash = slices.Clone(vc.strHash)
}

// classHash is the 32-bit text hash strReps are ordered by.
func classHash(s string) uint64 {
	return maphash.String(classSeed, s) >> 32
}

// trimmed returns node id's trimmed text.
func (ix *Index) trimmed(id int32) string { return strings.TrimSpace(ix.cols.Text(int(id))) }

// numClass returns the class of the numeric value f: the class of the
// document's nodes whose Num equals f, or noClass when none does (or f
// is NaN). The classes must have been built.
func (ix *Index) numClass(f float64) int32 {
	reps := ix.classes.numReps
	k, ok := slices.BinarySearchFunc(reps, f, func(rep int32, f float64) int { return cmp.Compare(ix.nums[rep], f) })
	if !ok || math.IsNaN(f) {
		return noClass
	}
	return int32(k)
}

// valueClass returns the class of v, a value computed outside the
// document (a constant or a scaled operand): numbers by Num, anything
// else by its exact text. The classes must have been built.
func (ix *Index) valueClass(v Value) int32 {
	if v.IsNum {
		return ix.numClass(v.Num)
	}
	vc := &ix.classes
	h := uint32(classHash(v.Str))
	k, _ := slices.BinarySearch(vc.strHash, h)
	for ; k < len(vc.strHash) && vc.strHash[k] == h; k++ {
		if ix.trimmed(vc.strReps[k]) == v.Str {
			return int32(len(vc.numReps) + k)
		}
	}
	return noClass
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmldoc.Document { return ix.doc }

// Alphabet returns the document's sorted label set, captured at build
// time. Callers must not mutate the returned slice.
func (ix *Index) Alphabet() []string { return ix.alphabet }

// Nodes returns the element/attribute nodes with the given label in
// document order. Callers must not mutate the returned slice.
func (ix *Index) Nodes(label string) []*xmldoc.Node {
	sym, ok := ix.doc.SymOf(label)
	if !ok {
		return nil
	}
	return ix.byLabel[sym]
}

// NodesSym is Nodes by label symbol.
func (ix *Index) NodesSym(sym int32) []*xmldoc.Node {
	if sym < 0 || int(sym) >= len(ix.byLabel) {
		return nil
	}
	return ix.byLabel[sym]
}

// Columns returns the structure-of-arrays view of the indexed
// document, built in the same walk as the clocks. Callers must treat it
// as read-only.
func (ix *Index) Columns() *xmldoc.Columns { return ix.cols }

// RealizedPathsDFA returns the DFA accepting exactly the document's
// realized root label paths, built lazily at most once. The words are
// fed to the construction in SortedRootPaths order — the order the
// learning engine's path table is in — so the automaton, state
// numbering included, is identical to the per-session build it
// replaces. Safe for concurrent use.
func (ix *Index) RealizedPathsDFA() *pathre.DFA {
	ix.realizedOnce.Do(func() {
		words := make([][]string, len(ix.paths))
		for i := range ix.paths {
			words[i] = ix.paths[i].Labels(ix.alphabet)
		}
		ix.realized = pathre.FromStrings(words, ix.alphabet)
	})
	return ix.realized
}

// RootPath is one distinct root label path of a document, with the
// element and attribute nodes at it in document order.
type RootPath struct {
	Nodes []*xmldoc.Node
	// Pos is the path's labels as positions in the document's sorted
	// alphabet, so an automaton over that alphabet runs the path on its
	// transition rows alone.
	Pos []int32
}

// Labels returns the path's labels, given the alphabet Pos indexes.
func (p RootPath) Labels(alphabet []string) []string {
	out := make([]string, len(p.Pos))
	for i, a := range p.Pos {
		out[i] = alphabet[a]
	}
	return out
}

// alphabetPos returns label's position in the sorted alphabet, which
// must hold it.
func alphabetPos(alphabet []string, label string) int32 {
	i, _ := slices.BinarySearch(alphabet, label)
	return int32(i)
}

// PathPos returns labels as positions in the sorted alphabet, which
// must hold every label.
func PathPos(alphabet, labels []string) []int32 {
	pos := make([]int32, len(labels))
	for i, l := range labels {
		pos[i] = alphabetPos(alphabet, l)
	}
	return pos
}

// SortRootPaths sorts paths into learner order: lexicographic by label
// sequence, which is the order of their "\x00"-joined keys. Positions
// in a sorted alphabet order as their labels do, so the sort compares
// Pos alone.
func SortRootPaths(paths []RootPath) {
	slices.SortFunc(paths, func(a, b RootPath) int { return slices.Compare(a.Pos, b.Pos) })
}

// SortedRootPaths returns the document's distinct root paths in learner
// order (see SortRootPaths), each with its nodes in document order. The
// table is built with the index, so the sessions sharing the index
// share it instead of sorting and resolving it each. Callers must not
// mutate it.
func (ix *Index) SortedRootPaths() []RootPath { return ix.paths }

// Ancestor reports whether anc is a proper ancestor of n, in O(1) for
// nodes of the indexed document (falling back to the pointer walk for
// foreign nodes, so it is always equivalent to anc.IsAncestorOf(n)).
func (ix *Index) Ancestor(anc, n *xmldoc.Node) bool {
	if anc == nil || n == nil {
		return false
	}
	if anc.Document() != ix.doc || n.Document() != ix.doc ||
		anc.ID >= len(ix.pre) || n.ID >= len(ix.pre) {
		return anc.IsAncestorOf(n)
	}
	return ix.pre[anc.ID] < ix.pre[n.ID] && ix.post[n.ID] < ix.post[anc.ID]
}

// docOrderLess reports whether a precedes b in document (walk) order.
func (ix *Index) docOrderLess(a, b *xmldoc.Node) bool {
	return ix.pre[a.ID] < ix.pre[b.ID]
}
