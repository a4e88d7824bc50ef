package xq

import (
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
	v := Value{Node: n, Str: strings.TrimSpace(ix.cols.Text(n.ID))}
	if ix.numeric[n.ID/64]&(1<<(n.ID%64)) != 0 {
		v.Num, v.IsNum = ix.nums[n.ID], true
	}
	return v
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
