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
//
// The generator files every person under /site/people, every open
// auction under /site/open_auctions, every category under
// /site/categories and every item under /site/regions/<region>. The ID
// selectors scan those children in document order, so each finds the
// node a pre-order walk for its label finds first, without walking the
// rest of the document on the way.

func personByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return childByID(siteChild(doc, "people"), "person", id)
}

func auctionByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return childByID(siteChild(doc, "open_auctions"), "open_auction", id)
}

func categoryByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return childByID(siteChild(doc, "categories"), "category", id)
}

func itemByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	if rs := siteChild(doc, "regions"); rs != nil {
		for _, r := range rs.Children {
			if n := childByID(r, "item", id); n != nil {
				return n
			}
		}
	}
	return nil
}

// siteChild returns the first child element of the document's site
// root with the label, or nil.
func siteChild(doc *xmldoc.Document, label string) *xmldoc.Node {
	site := doc.Root()
	if site == nil || site.Name != "site" {
		return nil
	}
	return site.FirstChildNamed(label)
}

// childByID returns the first child element of parent with the label
// whose id attribute is id, or nil (also for a nil parent).
func childByID(parent *xmldoc.Node, label, id string) *xmldoc.Node {
	if parent == nil {
		return nil
	}
	for _, c := range parent.Children {
		if c.Kind != xmldoc.ElementNode || c.Name != label {
			continue
		}
		if v, _ := c.Attr("id"); v == id {
			return c
		}
	}
	return nil
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
