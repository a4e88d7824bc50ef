// Package datagraph implements the paper's data graph (Section 7.2): the
// XML node tree augmented with v-equality edges between nodes carrying
// the same value. C-Learner uses it to enumerate the candidate
// predicates cond(context(e), (ve, e)) — all learnable relationship
// predicates (Rel1, Rel2, Rel3 of Section 6) that hold between a
// dropped example and its context nodes — and the Condition Box uses it
// to derive how an explicitly dropped condition node relates to the
// variables in scope.
//
// Following the paper's heuristics, enumeration bounds the maximal
// length of join paths and skips values shared by too many nodes
// (the "values used for join conditions are limited" observation).
package datagraph

import (
	"math/bits"
	"sort"
	"strings"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Config bounds the enumeration.
type Config struct {
	// MaxPathDepth bounds the length of the simple paths hanging off a
	// variable in a candidate predicate (join path length).
	MaxPathDepth int
	// MaxBucket skips v-equality buckets larger than this (values such
	// as "yes" shared by hundreds of nodes never drive joins).
	MaxBucket int
	// MaxRelayUp bounds how many ancestor levels may form the relay
	// entity of a Rel3 predicate.
	MaxRelayUp int
	// MaxTextBucket: a value carried only by element text (never by an
	// attribute) drives a join candidate only when its bucket is at most
	// this size. ID/IDREF-style values live in attributes; free text
	// ("Will ship internationally", genders, keywords) is rarely a join
	// key, and admitting it floods C-Learner with coincidental
	// predicates — the paper's "values used for join conditions are
	// limited" heuristic.
	MaxTextBucket int
	// EnableDocRelay enables Rel3 (document-rooted relay) enumeration in
	// Cond; Condition Box derivation always uses relays.
	EnableDocRelay bool
}

// DefaultConfig returns the bounds used in the experiments.
func DefaultConfig() Config {
	return Config{MaxPathDepth: 3, MaxBucket: 64, MaxRelayUp: 2, MaxTextBucket: 4, EnableDocRelay: true}
}

// Buckets is the document half of the data graph: the v-equality
// adjacency (trimmed value -> the attributes and text-only elements
// carrying it, in document order). It depends only on the document, so
// one Buckets backs every Graph over that document whatever its Config
// (internal/artifacts keeps one per document, next to the index).
// Immutable after NewBuckets and safe for concurrent readers.
type Buckets struct {
	doc  *xmldoc.Document
	cols *xmldoc.Columns
	// carries has one bit per node ID: set for the nodes carrying a
	// joinable value (attributes and text-only elements). A value is
	// the trimmed cols.Text span, so no value string is ever assembled.
	carries []uint64
	// ids numbers the distinct values; bucket b is nodes[start[b]:
	// start[b+1]], and attr has bit b set when an attribute carries the
	// value (the ID/IDREF signature of entity keys).
	ids   map[string]int32
	nodes []*xmldoc.Node
	start []int32
	attr  []uint64
}

// NewBuckets files the value-carrying nodes of ix's document by value,
// reading the index's columns: one pass over the node kinds marks the
// carriers, one pre-order walk of the element and attribute chains
// numbers their values in document order, and a counting sort lays the
// buckets out back to back.
func NewBuckets(ix *xq.Index) *Buckets {
	doc, cols := ix.Doc(), ix.Columns()
	b := &Buckets{doc: doc, cols: cols, carries: make([]uint64, (cols.Len()+63)/64), ids: map[string]int32{}}
	for id, k := range cols.Kind {
		switch xmldoc.Kind(k) {
		case xmldoc.AttributeNode:
			setBit(b.carries, id)
		case xmldoc.TextNode:
			// A text child makes its parent a carrier unless the parent
			// also has element children (mixed content).
			if p := cols.Parent[id]; p >= 0 && xmldoc.Kind(cols.Kind[p]) == xmldoc.ElementNode && cols.FirstElem[p] < 0 {
				setBit(b.carries, int(p))
			}
		}
	}
	n := 0
	for _, w := range b.carries {
		n += bits.OnesCount64(w)
	}
	// order lists the carriers in document order, of holds each one's
	// bucket number, and size counts each bucket's nodes.
	order := make([]int32, 0, n)
	of := make([]int32, 0, n)
	var size []int32
	add := func(id int32) {
		v := strings.TrimSpace(cols.Text(int(id)))
		bk, ok := b.ids[v]
		if !ok {
			bk = int32(len(size))
			b.ids[v] = bk
			size = append(size, 0)
		}
		size[bk]++
		order = append(order, id)
		of = append(of, bk)
	}
	// Pre-order walk (node, its attributes, its element children) by
	// the column chains — the order Document.Walk visits carriers in.
	for id := int32(doc.DocNode().ID); id >= 0; {
		if hasBit(b.carries, int(id)) {
			add(id)
		}
		for a := cols.FirstAttr[id]; a >= 0; a = cols.NextAttr[a] {
			add(a)
		}
		if c := cols.FirstElem[id]; c >= 0 {
			id = c
			continue
		}
		for id >= 0 && cols.NextElem[id] < 0 {
			id = cols.Parent[id]
		}
		if id >= 0 {
			id = cols.NextElem[id]
		}
	}
	b.start = make([]int32, len(size)+1)
	for i, s := range size {
		b.start[i+1] = b.start[i] + s
	}
	b.nodes = make([]*xmldoc.Node, len(order))
	b.attr = make([]uint64, (len(size)+63)/64)
	// size turns into each bucket's fill cursor.
	copy(size, b.start)
	for i, id := range order {
		bk := of[i]
		b.nodes[size[bk]] = doc.NodeByID(int(id))
		size[bk]++
		if xmldoc.Kind(cols.Kind[id]) == xmldoc.AttributeNode {
			setBit(b.attr, int(bk))
		}
	}
	return b
}

func setBit(set []uint64, i int)      { set[i/64] |= 1 << (i % 64) }
func hasBit(set []uint64, i int) bool { return set[i/64]&(1<<(i%64)) != 0 }

// value returns the joinable value of a node of the document —
// attribute values and the text of text-only elements, trimmed — read
// from the index's text column. Nodes of another document carry none.
func (b *Buckets) value(n *xmldoc.Node) (string, bool) {
	if n.ID >= b.cols.Len() || n.Document() != b.doc || !hasBit(b.carries, n.ID) {
		return "", false
	}
	return strings.TrimSpace(b.cols.Text(n.ID)), true
}

// bucket returns the nodes carrying value, in document order, and
// whether any of them is an attribute. Callers must not mutate the
// slice.
func (b *Buckets) bucket(value string) ([]*xmldoc.Node, bool) {
	bk, ok := b.ids[value]
	if !ok {
		return nil, false
	}
	s, e := b.start[bk], b.start[bk+1]
	return b.nodes[s:e:e], hasBit(b.attr, int(bk))
}

// Graph is the data graph over one document: the document's shared
// value buckets under one enumeration Config.
type Graph struct {
	Doc *xmldoc.Document
	Cfg Config

	vals *Buckets
}

// New returns the data graph over the buckets' document with the given
// enumeration bounds. It builds nothing: graphs with different configs
// over one document share its buckets.
func New(b *Buckets, cfg Config) *Graph {
	return &Graph{Doc: b.doc, Cfg: cfg, vals: b}
}

// Buckets returns the graph's value buckets.
func (g *Graph) Buckets() *Buckets { return g.vals }

// EqualValued returns the nodes sharing the value, or nil when the
// bucket exceeds MaxBucket (too unselective to drive a join).
func (g *Graph) EqualValued(value string) []*xmldoc.Node {
	b, _ := g.vals.bucket(strings.TrimSpace(value))
	if len(b) > g.Cfg.MaxBucket {
		return nil
	}
	return b
}

// withinCap reports whether value's bucket fits MaxBucket.
func (g *Graph) withinCap(value string) bool {
	b, _ := g.vals.bucket(value)
	return len(b) <= g.Cfg.MaxBucket
}

// joinSelective reports whether a value may drive a learned join
// predicate: its bucket must fit MaxBucket, and values that never occur
// in an attribute must additionally fit MaxTextBucket — unless they
// look like keys (short, space-free, digit-bearing tokens such as
// "1001" or "U01", the shape of relational keys stored as element
// text), which get a more generous bucket.
func (g *Graph) joinSelective(value string) bool {
	b, attrBacked := g.vals.bucket(value)
	if len(b) == 0 || len(b) > g.Cfg.MaxBucket {
		return false
	}
	if attrBacked {
		return true
	}
	if len(b) <= g.Cfg.MaxTextBucket {
		return true
	}
	return looksLikeKey(value) && len(b) <= 4*g.Cfg.MaxTextBucket
}

// looksLikeKey recognizes identifier-shaped text values.
func looksLikeKey(v string) bool {
	if len(v) == 0 || len(v) > 12 {
		return false
	}
	hasDigit := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return hasDigit
}

// VEdgeCount returns the number of v-equality edges in the graph (the
// "density" static factor of Section 10).
func (g *Graph) VEdgeCount() int {
	total := 0
	for i := 1; i < len(g.vals.start); i++ {
		n := int(g.vals.start[i] - g.vals.start[i-1])
		total += n * (n - 1) / 2
	}
	return total
}

// valueLeaf is a value-bearing node under an anchor, with the
// position-free child-axis path from the anchor to it.
type valueLeaf struct {
	node  *xmldoc.Node
	path  xq.SimplePath
	value string
}

// valueLeaves collects value nodes under n (including n itself if it
// carries a value) up to the configured depth.
func (g *Graph) valueLeaves(n *xmldoc.Node) []valueLeaf {
	var out []valueLeaf
	var walk func(cur *xmldoc.Node, path xq.SimplePath, depth int)
	walk = func(cur *xmldoc.Node, path xq.SimplePath, depth int) {
		if v, ok := g.vals.value(cur); ok && v != "" {
			out = append(out, valueLeaf{node: cur, path: append(xq.SimplePath(nil), path...), value: v})
		}
		if depth >= g.Cfg.MaxPathDepth || cur.Kind != xmldoc.ElementNode {
			return
		}
		for _, a := range cur.Attrs {
			walk(a, append(path, xq.Step{Name: a.Label()}), depth+1)
		}
		for _, c := range cur.Children {
			if c.Kind == xmldoc.ElementNode {
				walk(c, append(path, xq.Step{Name: c.Label()}), depth+1)
			}
		}
	}
	walk(n, nil, 0)
	return out
}

// RootPath returns the position-free label path from the document
// element to n as a SimplePath (used as the relay binding path of Rel3
// predicates: some $w in document()/RootPath).
func RootPath(n *xmldoc.Node) xq.SimplePath {
	labels := n.Path()
	out := make(xq.SimplePath, len(labels))
	for i, l := range labels {
		out[i] = xq.Step{Name: l}
	}
	return out
}

// DirectJoins enumerates the Rel1/Rel2-shaped predicates that hold
// between (v1 bound to n1) and (v2 bound to n2): equalities between
// value leaves under the two nodes. Results are deduplicated by
// rendered form and sorted.
func (g *Graph) DirectJoins(v1 string, n1 *xmldoc.Node, v2 string, n2 *xmldoc.Node) []*xq.Pred {
	l1 := g.valueLeaves(n1)
	l2 := g.valueLeaves(n2)
	byVal2 := map[string][]valueLeaf{}
	for _, l := range l2 {
		byVal2[l.value] = append(byVal2[l.value], l)
	}
	seen := map[string]bool{}
	var out []*xq.Pred
	for _, a := range l1 {
		if !g.joinSelective(a.value) {
			continue
		}
		for _, b := range byVal2[a.value] {
			p := xq.EqJoin(v1, a.path, v2, b.path)
			if k := p.Key(); !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// relayEntities returns candidate relay entities for a node: the node's
// enclosing elements up to MaxRelayUp levels (the element owning an
// attribute counts as the first level).
func (g *Graph) relayEntities(n *xmldoc.Node) []*xmldoc.Node {
	var out []*xmldoc.Node
	cur := n
	if cur.Kind != xmldoc.ElementNode {
		cur = cur.Parent
	}
	for i := 0; i < g.Cfg.MaxRelayUp && cur != nil && cur.Kind == xmldoc.ElementNode; i++ {
		out = append(out, cur)
		cur = cur.Parent
	}
	return out
}

// relPath returns the position-free child-axis path from ancestor a
// down to n, or nil,false if n is not in a's subtree.
func relPath(a, n *xmldoc.Node) (xq.SimplePath, bool) {
	var rev []string
	cur := n
	for cur != nil && cur != a {
		rev = append(rev, cur.Label())
		cur = cur.Parent
	}
	if cur != a {
		return nil, false
	}
	out := make(xq.SimplePath, len(rev))
	for i := range rev {
		out[i] = xq.Step{Name: rev[len(rev)-1-i]}
	}
	return out, true
}

// RelayJoins enumerates Rel3-shaped predicates relating (v1, n1) and
// (v2, n2) through a document-rooted relay entity: some $w in
// document()/q satisfies data($w/pa) = data($v1/p1) and
// data($w/pb) = data($v2/p2). Only relays connected to BOTH sides by
// v-equality survive, and the relay must be a different entity type
// than n1 itself — a same-type relay is a disguised self-join, which
// the learnable family expresses with direct joins (Rel1/Rel2).
func (g *Graph) RelayJoins(v1 string, n1 *xmldoc.Node, v2 string, n2 *xmldoc.Node) []*xq.Pred {
	l1 := g.valueLeaves(n1)
	l2 := g.valueLeaves(n2)
	selfType := RootPath(n1).String()
	seen := map[string]bool{}
	var out []*xq.Pred
	for _, a := range l1 {
		// Relay (entity) joins run through keys: selective values only.
		if !g.joinSelective(a.value) {
			continue
		}
		for _, y := range g.EqualValued(a.value) {
			if y == a.node || n1.IsAncestorOf(y) || y == n1 {
				continue
			}
			for _, r := range g.relayEntities(y) {
				// Relay must not be an ancestor of either side (that
				// would be navigation, not a join) nor n1's own entity
				// type (a self-join in disguise).
				if r.IsAncestorOf(n1) || r.IsAncestorOf(n2) || r == n1 || r == n2 {
					continue
				}
				if RootPath(r).String() == selfType {
					continue
				}
				pa, ok := relPath(r, y)
				if !ok {
					continue
				}
				// Find a second link from the same relay entity to n2.
				for _, z := range g.valueLeaves(r) {
					// The second link must be a distinct key of the relay
					// entity: attribute-backed and on a different relay
					// path than the first link (a shared leaf would make
					// the "join" a tautology of the first equality).
					if z.node == y || z.path.Equal(pa) || !g.joinSelective(z.value) {
						continue
					}
					for _, b := range l2 {
						if b.value != z.value {
							continue
						}
						p := &xq.Pred{
							RelayVar:  "w",
							RelayPath: RootPath(r),
							Atoms: []xq.Cmp{
								{Op: xq.OpEq, L: xq.VarOp("w", pa), R: xq.VarOp(v1, a.path)},
								{Op: xq.OpEq, L: xq.VarOp("w", z.path), R: xq.VarOp(v2, b.path)},
							},
						}
						if k := p.Key(); !seen[k] {
							seen[k] = true
							out = append(out, p)
						}
					}
				}
			}
		}
	}
	// Container relays: the entity enclosing n1 itself can be the relay,
	// identified by n1's own value ("some book $w with $w/title = $t1
	// satisfies ..." — how XMP-style text joins surface).
	// The identifying value only needs the hard bucket cap: the
	// conjunction with the second (selective) link does the filtering.
	if v, ok := g.vals.value(n1); ok && v != "" && g.withinCap(v) {
		for _, r := range g.relayEntities(n1) {
			if r == n1 {
				continue
			}
			pa, ok := relPath(r, n1)
			if !ok || len(pa) == 0 {
				continue
			}
			for _, z := range g.valueLeaves(r) {
				if z.node == n1 || z.path.Equal(pa) || !g.joinSelective(z.value) {
					continue
				}
				for _, b := range l2 {
					if b.value != z.value {
						continue
					}
					p := &xq.Pred{
						RelayVar:  "w",
						RelayPath: RootPath(r),
						Atoms: []xq.Cmp{
							{Op: xq.OpEq, L: xq.VarOp("w", pa), R: xq.VarOp(v1, nil)},
							{Op: xq.OpEq, L: xq.VarOp("w", z.path), R: xq.VarOp(v2, b.path)},
						},
					}
					if k := p.Key(); !seen[k] {
						seen[k] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// ConditionLink describes how a node dropped into a Condition Box
// relates to the variables in scope (Section 9(3)): either directly
// (the node lies inside a scope variable's subtree) or through a relay
// entity connected by v-equality ("H. Potter's price value under
// closed_auction" in the running example).
type ConditionLink struct {
	// HasRelay reports whether a relay binding is required.
	HasRelay bool
	// RelayPath is the document-rooted binding path of the relay entity
	// (meaningful when HasRelay).
	RelayPath xq.SimplePath
	// LinkAtoms are the equalities tying the relay to a scope variable.
	LinkAtoms []xq.Cmp
	// CondOperand locates the dropped node's value — on the relay
	// variable "w" or directly on a scope variable.
	CondOperand xq.Operand
}

// LinkCondition derives how condNode connects to the given scope
// assignment (variable → example node). It prefers a direct descendant
// relationship; otherwise it searches for a relay entity containing
// condNode that shares a value with some scope node. Deterministic:
// scope variables are scanned in sorted order.
func (g *Graph) LinkCondition(scope map[string]*xmldoc.Node, condNode *xmldoc.Node) (ConditionLink, bool) {
	vars := make([]string, 0, len(scope))
	for v := range scope {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	// Direct containment.
	for _, v := range vars {
		if p, ok := relPath(scope[v], condNode); ok {
			return ConditionLink{CondOperand: xq.VarOp(v, p)}, true
		}
	}
	// Relay entity. Two passes: links through a node other than the
	// dropped one are preferred; when none exists, the dropped node may
	// itself carry the link (the natural derivation for exists/empty
	// conditions, e.g. "some bid with this item's number").
	for _, allowSelf := range []bool{false, true} {
		for _, r := range g.relayEntities(condNode) {
			condPath, ok := relPath(r, condNode)
			if !ok {
				continue
			}
			for _, z := range g.valueLeaves(r) {
				if (z.node == condNode && !allowSelf) || !g.withinCap(z.value) {
					continue
				}
				for _, v := range vars {
					n := scope[v]
					if r == n {
						continue
					}
					for _, a := range g.valueLeaves(n) {
						if a.value != z.value {
							continue
						}
						return ConditionLink{
							HasRelay:    true,
							RelayPath:   RootPath(r),
							LinkAtoms:   []xq.Cmp{{Op: xq.OpEq, L: xq.VarOp("w", z.path), R: xq.VarOp(v, a.path)}},
							CondOperand: xq.VarOp("w", condPath),
						}, true
					}
				}
			}
		}
	}
	return ConditionLink{}, false
}

// BuildConditionPred assembles the Condition Box predicate from a link,
// a comparison operator, and a constant; negate for a Negative
// Condition Box.
func BuildConditionPred(link ConditionLink, op xq.CmpOp, konst string, negated bool) *xq.Pred {
	atom := xq.Cmp{Op: op, L: link.CondOperand, R: xq.ConstOp(konst)}
	if op == xq.OpEmpty || op == xq.OpExists {
		atom = xq.Cmp{Op: op, L: link.CondOperand}
	}
	p := &xq.Pred{Negated: negated, Atoms: append(append([]xq.Cmp{}, link.LinkAtoms...), atom)}
	if link.HasRelay {
		p.RelayVar = "w"
		p.RelayPath = link.RelayPath
	}
	return p
}

// Cond computes cond(context, (ve, e)): every candidate predicate that
// holds between the example node e (bound to variable ve) and each
// context node (Section 7.2). This is the "strongest" predicate set
// C-Learner starts from; spurious members are removed by positive
// counterexamples.
func (g *Graph) Cond(ctx map[string]*xmldoc.Node, ve string, e *xmldoc.Node) []*xq.Pred {
	vars := make([]string, 0, len(ctx))
	for v := range ctx {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var out []*xq.Pred
	for _, v := range vars {
		out = append(out, g.DirectJoins(ve, e, v, ctx[v])...)
		if g.Cfg.EnableDocRelay {
			out = append(out, g.RelayJoins(ve, e, v, ctx[v])...)
		}
	}
	return out
}
