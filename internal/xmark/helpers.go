package xmark

import (
	"strings"

	"repro/internal/dtd"
	"repro/internal/pathre"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// allItemsPath matches items in every region.
const allItemsPath = "/site/regions/(africa|asia|australia|europe|namerica|samerica)/item"

// --- node selectors over the generated instance ---

// byIDAttr selects the first node with the label whose id attribute is
// id.
func byIDAttr(doc *xmldoc.Document, label, id string) *xmldoc.Node {
	return doc.FirstWithLabel(label, func(n *xmldoc.Node) bool {
		v, _ := n.Attr("id")
		return v == id
	})
}

func personByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return byIDAttr(doc, "person", id)
}

func auctionByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return byIDAttr(doc, "open_auction", id)
}

func childNamed(n *xmldoc.Node, name string) *xmldoc.Node {
	if n == nil {
		return nil
	}
	return n.FirstChildNamed(name)
}

// selPath evaluates a simple path from a node and returns the first hit.
func selPath(n *xmldoc.Node, path string) *xmldoc.Node {
	if n == nil {
		return nil
	}
	hits := xq.EvalSimplePath(n, xq.MustParseSimplePath(path))
	if len(hits) == 0 {
		return nil
	}
	return hits[0]
}

// --- truth-tree construction: thin aliases over the shared builders ---

var (
	leafFor    = scenario.LeafFor
	plainFor   = scenario.PlainFor
	anchorFor  = scenario.AnchorFor
	bareFor    = scenario.BareFor
	rootHolder = scenario.RootHolder
	countWrap  = scenario.CountWrap
)

// countHolder builds <tag>count({inner})</tag>.
func countHolder(tag string, inner *xq.Node) *xq.Node {
	return scenario.AggHolder(tag, "count", inner)
}

func mustDTD(src string) *dtd.DTD { return dtd.MustParse(src) }

func mustPath(s string) pathre.Expr { return pathre.MustParsePath(s) }

// textContains selects the first node with the label whose text
// contains the substring.
func textContains(doc *xmldoc.Document, label, sub string) *xmldoc.Node {
	return doc.FirstWithLabel(label, func(n *xmldoc.Node) bool {
		return strings.Contains(n.Text(), sub)
	})
}

// newEval is a test/tool convenience.
func newEval(doc *xmldoc.Document) *xq.Evaluator { return xq.NewEvaluator(doc) }
