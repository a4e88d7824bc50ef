// Package dataguide implements a strong DataGuide — the concise
// structural summary of a semistructured instance (Goldman & Widom) —
// as an alternative metadata source for reduction rule R1. The paper's
// footnote on R1 notes that "other forms of metadata such as Graph
// Schema can be used as well": any oracle answering "is this label path
// realizable" works, and the DataGuide answers it from the instance
// itself when no schema is available.
package dataguide

import (
	"sort"

	"repro/internal/xmldoc"
)

type node struct {
	children map[string]*node
	id       int32 // the node's StepPath state: its index in Guide.nodes
}

// Guide is a strong DataGuide: the trie of every label path realized in
// the instance.
type Guide struct {
	root  *node
	nodes []*node // by id; nodes[0] is root
	paths int
}

// Build summarizes the document.
func Build(doc *xmldoc.Document) *Guide {
	g := &Guide{root: &node{children: map[string]*node{}}}
	g.nodes = append(g.nodes, g.root)
	var walk func(n *xmldoc.Node, cur *node)
	walk = func(n *xmldoc.Node, cur *node) {
		for _, a := range n.Attrs {
			g.step(cur, a.Label())
		}
		for _, c := range n.Children {
			if c.Kind != xmldoc.ElementNode {
				continue
			}
			walk(c, g.step(cur, c.Label()))
		}
	}
	walk(doc.DocNode(), g.root)
	return g
}

func (g *Guide) step(cur *node, label string) *node {
	next := cur.children[label]
	if next == nil {
		next = &node{children: map[string]*node{}, id: int32(len(g.nodes))}
		cur.children[label] = next
		g.nodes = append(g.nodes, next)
		g.paths++
	}
	return next
}

// AcceptsPath reports whether the label path is realized in the
// summarized instance (the rule-R1 oracle; same signature as
// dtd.DTD.AcceptsPath).
func (g *Guide) AcceptsPath(path []string) bool {
	cur := g.root
	for _, label := range path {
		cur = cur.children[label]
		if cur == nil {
			return false
		}
	}
	return true
}

// StepPath implements core.PathFilter: a path's state is its guide
// node, 0 the root (the empty path), so stepping a label is one child
// lookup.
func (g *Guide) StepPath(from int32, label string) int32 {
	if from < 0 || int(from) >= len(g.nodes) {
		return -1
	}
	if next := g.nodes[from].children[label]; next != nil {
		return next.id
	}
	return -1
}

// NumPaths is the number of distinct label paths (the DataGuide's size;
// bounded by structure, not data volume).
func (g *Guide) NumPaths() int { return g.paths }

// Paths enumerates every distinct label path, sorted.
func (g *Guide) Paths() [][]string {
	var out [][]string
	var walk func(cur *node, prefix []string)
	walk = func(cur *node, prefix []string) {
		labels := make([]string, 0, len(cur.children))
		for l := range cur.children {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			p := append(append([]string{}, prefix...), l)
			out = append(out, p)
			walk(cur.children[l], p)
		}
	}
	walk(g.root, nil)
	return out
}
