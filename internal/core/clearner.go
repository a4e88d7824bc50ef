package core

import (
	"slices"

	"repro/internal/datagraph"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// cLearner implements C-Learner (Section 7.2): it maintains the
// strongest conjunction ĉ of candidate predicates consistent with every
// positive example seen. The first positive example initializes ĉ to
// cond(context(e), (ve, e)); each further positive intersects ĉ with
// its own candidate set — the monotone k-term algorithm of Figure 13,
// where a positive counterexample can remove many predicates at once.
type cLearner struct {
	graph  *datagraph.Graph
	ctx    map[string]*xmldoc.Node
	ve     string
	inited bool
	conds  map[string]*xq.Pred
	// preds is conds in key order, rebuilt only after conds changes;
	// gen counts those changes, so a caller holding a compiled form of
	// the conjunction knows when to recompile.
	preds []*xq.Pred
	gen   int
}

func newCLearner(g *datagraph.Graph, ctx map[string]*xmldoc.Node, ve string) *cLearner {
	return &cLearner{graph: g, ctx: ctx, ve: ve, conds: map[string]*xq.Pred{}}
}

// Observe incorporates a positive example's anchor node.
func (c *cLearner) Observe(anchor *xmldoc.Node) {
	cand := c.graph.Cond(c.ctx, c.ve, anchor)
	if !c.inited {
		c.inited = true
		for _, p := range cand {
			c.conds[p.Key()] = p
		}
		c.changed()
		return
	}
	keep := map[string]bool{}
	for _, p := range cand {
		keep[p.Key()] = true
	}
	n := len(c.conds)
	for k := range c.conds {
		if !keep[k] {
			delete(c.conds, k)
		}
	}
	if len(c.conds) != n {
		c.changed()
	}
}

// changed drops the ordered conjunction after conds changes.
func (c *cLearner) changed() {
	c.preds = nil
	c.gen++
}

// Preds returns the current conjunction in key order. The slice is
// shared until the conjunction next changes; callers must not modify
// it.
func (c *cLearner) Preds() []*xq.Pred {
	if c.preds == nil && len(c.conds) > 0 {
		keys := make([]string, 0, len(c.conds))
		for k := range c.conds {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.preds = make([]*xq.Pred, len(keys))
		for i, k := range keys {
			c.preds[i] = c.conds[k]
		}
	}
	return c.preds
}
