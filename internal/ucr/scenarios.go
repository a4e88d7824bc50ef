package ucr

import (
	"strings"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Scenarios returns eight of Use Case "R"'s in-XQI queries as runnable
// learning sessions (constructive backing for part of the Figure 15
// row; the remainder of the row is classified statically).
func Scenarios() []*scenario.Scenario {
	doc := Doc()
	return []*scenario.Scenario{
		rq1(doc), rq2(doc), rq3(doc), rq4(doc),
		rq5(doc), rq6(doc), rq8(doc), rq9(doc),
	}
}

// ScenarioByID returns the named scenario ("Q1".."Q9"), or nil.
func ScenarioByID(id string) *scenario.Scenario {
	for _, s := range Scenarios() {
		if s.ID == "R-"+id || s.ID == id {
			return s
		}
	}
	return nil
}

func mustDTD(src string) *dtd.DTD { return dtd.MustParse(src) }

func itemByNo(doc *xmldoc.Document, no string) *xmldoc.Node {
	return doc.FirstWithLabel("item_tuple", childTextIs("itemno", no))
}

func userByID(doc *xmldoc.Document, id string) *xmldoc.Node {
	return doc.FirstWithLabel("user_tuple", childTextIs("userid", id))
}

// childTextIs returns a FirstWithLabel match for nodes whose first
// child element named child has text s.
func childTextIs(child, s string) func(*xmldoc.Node) bool {
	return func(n *xmldoc.Node) bool {
		c := n.FirstChildNamed(child)
		return c != nil && c.Text() == s
	}
}

// bidWhere returns the child element named child of the first bid
// tuple that match accepts, or nil.
func bidWhere(d *xmldoc.Document, child string, match func(*xmldoc.Node) bool) *xmldoc.Node {
	b := d.FirstWithLabel("bid_tuple", match)
	if b == nil {
		return nil
	}
	if child == "" {
		return b
	}
	return b.FirstChildNamed(child)
}

// Q1: item numbers and descriptions of all bicycles (contains filter).
func rq1(doc *xmldoc.Document) *scenario.Scenario {
	bike := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpContains,
		L:  xq.VarOp("i1", xq.MustParseSimplePath("description")),
		R:  xq.ConstOp("Bicycle"),
	}}}
	return &scenario.Scenario{
		ID:          "R-Q1",
		Description: "item numbers and descriptions of all bicycles",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq1 (bike1*)>
<!ELEMENT bike1 (bno1, bdesc1)>
<!ELEMENT bno1 (#PCDATA)> <!ELEMENT bdesc1 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq1",
				scenario.AnchorFor("i1", "/r/items/item_tuple", "bike1",
					scenario.LeafFor("n1", "i1", "itemno", "bno1"),
					[]*xq.Node{scenario.PlainFor("d1", "i1", "description", "bdesc1")},
					bike))
		},
		Drops: []core.Drop{
			{Path: "rq1/bike1/bno1", Var: "n1", AnchorVar: "i1",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("itemno")
				}},
			{Path: "rq1/bike1/bdesc1", Var: "d1",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("description")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"n1": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("description")
				},
				Op: xq.OpContains, Const: "Bicycle", Terms: 3,
			}},
		},
	}
}

// Q2: for all bicycles, the item number and the highest bid (max()
// aggregate joined through the bids relation).
func rq2(doc *xmldoc.Document) *scenario.Scenario {
	bike := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpContains,
		L:  xq.VarOp("i2", xq.MustParseSimplePath("description")),
		R:  xq.ConstOp("Bicycle"),
	}}}
	sameItem := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("r/bids/bid_tuple"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("bid")), R: xq.VarOp("hb2", nil)},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("itemno")), R: xq.VarOp("i2", xq.MustParseSimplePath("itemno"))},
		},
	}
	return &scenario.Scenario{
		ID:          "R-Q2",
		Description: "bicycles with their highest bid",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq2 (brec2*)>
<!ELEMENT brec2 (bno2, high2)>
<!ELEMENT bno2 (#PCDATA)> <!ELEMENT high2 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq2",
				scenario.AnchorFor("i2", "/r/items/item_tuple", "brec2",
					scenario.LeafFor("n2", "i2", "itemno", "bno2"),
					[]*xq.Node{scenario.AggHolder("high2", "max",
						scenario.BareFor("hb2", "", "/r/bids/bid_tuple/bid", sameItem))},
					bike))
		},
		Drops: []core.Drop{
			{Path: "rq2/brec2/bno2", Var: "n2", AnchorVar: "i2",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("itemno")
				}},
			{Path: "rq2/brec2/high2", Var: "hb2", Wrap: scenario.FnWrap("max"), Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bidWhere(d, "bid", func(b *xmldoc.Node) bool {
						return b.FirstChildNamed("itemno").Text() == "1001"
					})
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"n2": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("description")
				},
				Op: xq.OpContains, Const: "Bicycle", Terms: 3,
			}},
		},
	}
}

// Q3: users with rating A.
func rq3(doc *xmldoc.Document) *scenario.Scenario {
	ratedA := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpEq, L: xq.VarOp("u3", xq.MustParseSimplePath("rating")), R: xq.ConstOp("A"),
	}}}
	return &scenario.Scenario{
		ID:          "R-Q3",
		Description: "names of users rated A",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq3 (auser3*)>
<!ELEMENT auser3 (aname3)>
<!ELEMENT aname3 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq3",
				scenario.AnchorFor("u3", "/r/users/user_tuple", "auser3",
					scenario.LeafFor("an3", "u3", "name", "aname3"), nil, ratedA))
		},
		Drops: []core.Drop{{
			Path: "rq3/auser3/aname3", Var: "an3", AnchorVar: "u3",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return userByID(d, "U02").FirstChildNamed("name")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"an3": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return userByID(d, "U02").FirstChildNamed("rating")
				},
				Op: xq.OpEq, Const: "A", Terms: 3,
			}},
		},
	}
}

// Q4: for each user, the items they offer (foreign-key join learned by
// C-Learner).
func rq4(doc *xmldoc.Document) *scenario.Scenario {
	offered := xq.EqJoin("o4", xq.MustParseSimplePath("offered_by"),
		"u4", xq.MustParseSimplePath("userid"))
	return &scenario.Scenario{
		ID:          "R-Q4",
		Description: "per-user offered items",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq4 (seller4*)>
<!ELEMENT seller4 (sname4, offer4*)>
<!ELEMENT sname4 (#PCDATA)> <!ELEMENT offer4 (odesc4)>
<!ELEMENT odesc4 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			o4 := scenario.AnchorFor("o4", "/r/items/item_tuple", "offer4",
				scenario.LeafFor("od4", "o4", "description", "odesc4"), nil, offered)
			return scenario.RootHolder("rq4",
				scenario.AnchorFor("u4", "/r/users/user_tuple", "seller4",
					scenario.LeafFor("sn4", "u4", "name", "sname4"), []*xq.Node{o4}))
		},
		Drops: []core.Drop{
			{Path: "rq4/seller4/sname4", Var: "sn4", AnchorVar: "u4",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return userByID(d, "U01").FirstChildNamed("name")
				}},
			{Path: "rq4/seller4/offer4/odesc4", Var: "od4", AnchorVar: "o4",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("description")
				}},
		},
	}
}

// Q5: the number of bids on each item.
func rq5(doc *xmldoc.Document) *scenario.Scenario {
	sameItem := xq.EqJoin("b5", xq.MustParseSimplePath("itemno"),
		"i5", xq.MustParseSimplePath("itemno"))
	return &scenario.Scenario{
		ID:          "R-Q5",
		Description: "per-item bid counts",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq5 (icount5*)>
<!ELEMENT icount5 (ino5, nbids5)>
<!ELEMENT ino5 (#PCDATA)> <!ELEMENT nbids5 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq5",
				scenario.AnchorFor("i5", "/r/items/item_tuple", "icount5",
					scenario.LeafFor("in5", "i5", "itemno", "ino5"),
					[]*xq.Node{scenario.AggHolder("nbids5", "count",
						scenario.BareFor("b5", "", "/r/bids/bid_tuple", sameItem))}))
		},
		Drops: []core.Drop{
			{Path: "rq5/icount5/ino5", Var: "in5", AnchorVar: "i5",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return itemByNo(d, "1001").FirstChildNamed("itemno")
				}},
			{Path: "rq5/icount5/nbids5", Var: "b5", Wrap: scenario.CountWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bidWhere(d, "", func(b *xmldoc.Node) bool {
						return b.FirstChildNamed("itemno").Text() == "1001"
					})
				}},
		},
	}
}

// Q6: items with no bids (the empty predicate via a Negative Condition
// Box).
func rq6(doc *xmldoc.Document) *scenario.Scenario {
	noBids := &xq.Pred{
		Negated:  true,
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("r/bids/bid_tuple"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("itemno")), R: xq.VarOp("i6", xq.MustParseSimplePath("itemno"))},
			{Op: xq.OpExists, L: xq.VarOp("w", xq.MustParseSimplePath("itemno"))},
		},
	}
	return &scenario.Scenario{
		ID:          "R-Q6",
		Description: "items that received no bids",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq6 (quiet6*)>
<!ELEMENT quiet6 (qdesc6)>
<!ELEMENT qdesc6 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq6",
				scenario.AnchorFor("i6", "/r/items/item_tuple", "quiet6",
					scenario.LeafFor("qd6", "i6", "description", "qdesc6"), nil, noBids))
		},
		Drops: []core.Drop{{
			Path: "rq6/quiet6/qdesc6", Var: "qd6", AnchorVar: "i6",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				// 1005 (Tennis Racket) has no bids.
				return itemByNo(d, "1005").FirstChildNamed("description")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"qd6": {{
				// NCB: the counterexample item HAS a bid; the user drops
				// that bid's itemno.
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					if ce == nil || ce.Parent == nil {
						return nil
					}
					no := ce.Parent.FirstChildNamed("itemno").Text()
					return bidWhere(d, "itemno", func(b *xmldoc.Node) bool {
						return b.FirstChildNamed("itemno").Text() == no && b.Parent.Name == "bids"
					})
				},
				Op: xq.OpExists, Negated: true, Terms: 3,
			}},
		},
	}
}

// bid400 matches the 400-dollar bid tuple, Q8's example.
func bid400(b *xmldoc.Node) bool { return b.FirstChildNamed("bid").Text() == "400" }

// Q8: bids above 100 dollars with their bidders' ids.
func rq8(doc *xmldoc.Document) *scenario.Scenario {
	big := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpGt, L: xq.VarOp("b8", xq.MustParseSimplePath("bid")), R: xq.ConstOp("100"),
	}}}
	return &scenario.Scenario{
		ID:          "R-Q8",
		Description: "bids above 100 with bidder ids",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq8 (bigbid8*)>
<!ELEMENT bigbid8 (who8, amount8)>
<!ELEMENT who8 (#PCDATA)> <!ELEMENT amount8 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("rq8",
				scenario.AnchorFor("b8", "/r/bids/bid_tuple", "bigbid8",
					scenario.LeafFor("w8", "b8", "userid", "who8"),
					[]*xq.Node{scenario.PlainFor("a8", "b8", "bid", "amount8")},
					big))
		},
		Drops: []core.Drop{
			{Path: "rq8/bigbid8/who8", Var: "w8", AnchorVar: "b8",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bidWhere(d, "userid", bid400)
				}},
			{Path: "rq8/bigbid8/amount8", Var: "a8",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bidWhere(d, "bid", bid400)
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"w8": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return bidWhere(d, "bid", bid400)
				},
				Op: xq.OpGt, Const: "100", Terms: 3,
			}},
		},
	}
}

// Q9: users sorted by name, with ratings.
func rq9(doc *xmldoc.Document) *scenario.Scenario {
	key := xq.SortKey{Var: "u9", Path: xq.MustParseSimplePath("name")}
	return &scenario.Scenario{
		ID:          "R-Q9",
		Description: "users in name order with their ratings",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT rq9 (urec9*)>
<!ELEMENT urec9 (uname9, urating9?)>
<!ELEMENT uname9 (#PCDATA)> <!ELEMENT urating9 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			a := scenario.AnchorFor("u9", "/r/users/user_tuple", "urec9",
				scenario.LeafFor("un9", "u9", "name", "uname9"),
				[]*xq.Node{scenario.PlainFor("ur9", "u9", "rating", "urating9")})
			a.OrderBy = []xq.SortKey{key}
			return scenario.RootHolder("rq9", a)
		},
		Drops: []core.Drop{
			{Path: "rq9/urec9/uname9", Var: "un9", AnchorVar: "u9",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return userByID(d, "U01").FirstChildNamed("name")
				}},
			{Path: "rq9/urec9/urating9", Var: "ur9",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return userByID(d, "U01").FirstChildNamed("rating")
				}},
		},
		Orders: map[string][]xq.SortKey{"un9": {key}},
	}
}

var _ = strings.Contains
