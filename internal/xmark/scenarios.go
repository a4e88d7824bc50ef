package xmark

import (
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Scenarios returns the 19 XMark queries of Figure 16 (Q1–Q5, Q7–Q20;
// Q6 is omitted exactly as in the paper) modeled as XLearner sessions
// over one generated instance. Each scenario's ground truth evaluates
// the benchmark query's XQI-equivalent (Section 9: what XLearner learns
// is a query Q' with Q'(I) = Q(I)); Drop/Box/OrderBy structure follows
// the paper's D&D / CB / OB columns.
func Scenarios() []*scenario.Scenario {
	doc := Generate(DefaultConfig())
	return []*scenario.Scenario{
		q1(doc), q2(doc), q3(doc), q4(doc), q5(doc),
		q7(doc), q8(doc), q9(doc), q10(doc),
		q11(doc), q12(doc), q13(doc), q14(doc), q15(doc),
		q16(doc), q17(doc), q18(doc), q19(doc), q20(doc),
	}
}

// ScenarioByID returns the named scenario ("Q1".."Q20"), or nil.
func ScenarioByID(id string) *scenario.Scenario {
	for _, s := range Scenarios() {
		if s.ID == "XMark-"+id || s.ID == id {
			return s
		}
	}
	return nil
}

// Q1: the name of the person with id person0.
func q1(doc *xmldoc.Document) *scenario.Scenario {
	pred := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("site/people/person"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("name")), R: xq.VarOp("n1", nil)},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("@id")), R: xq.ConstOp("person0")},
		},
	}
	return &scenario.Scenario{
		ID:          "XMark-Q1",
		Description: "name of the person with id person0",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT q1 (pname1*)> <!ELEMENT pname1 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q1",
				plainFor("n1", "", "/site/people/person/name", "pname1", pred))
		},
		Drops: []core.Drop{{
			Path: "q1/pname1", Var: "n1",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(personByID(d, "person0"), "name")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"n1": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return personByID(d, "person0").AttrNode("id")
				},
				Op: xq.OpEq, Const: "person0", Terms: 3,
			}},
		},
	}
}

// Q2: the increase of the first bid of every open auction.
func q2(doc *xmldoc.Document) *scenario.Scenario {
	first := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("site/open_auctions/open_auction"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("bidder[1]/increase")), R: xq.VarOp("b2", nil)},
		},
	}
	return &scenario.Scenario{
		ID:          "XMark-Q2",
		Description: "increase of the first bid of every open auction",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT q2 (increase2*)> <!ELEMENT increase2 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q2",
				plainFor("b2", "", "/site/open_auctions/open_auction/bidder/increase", "increase2", first))
		},
		Drops: []core.Drop{{
			Path: "q2/increase2", Var: "b2",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return selPath(auctionByID(d, "open_auction0"), "bidder[1]/increase")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"b2": {{Pred: first, Terms: 4}},
		},
	}
}

// Q3: auctions whose first bid is at most half the last bid; their
// current price and initial price.
func q3(doc *xmldoc.Document) *scenario.Scenario {
	pos := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpLe,
		L:  xq.Operand{Var: "a3", Path: xq.MustParseSimplePath("bidder[1]/increase"), Mul: 2},
		R:  xq.VarOp("a3", xq.MustParseSimplePath("bidder[last()]/increase")),
	}}}
	return &scenario.Scenario{
		ID:          "XMark-Q3",
		Description: "auctions where the first bid doubled is at most the last bid",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q3 (entry3*)>
<!ELEMENT entry3 (cur3, init3)>
<!ELEMENT cur3 (#PCDATA)>
<!ELEMENT init3 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q3",
				anchorFor("a3", "/site/open_auctions/open_auction", "entry3",
					leafFor("cu3", "a3", "current", "cur3"),
					[]*xq.Node{plainFor("in3", "a3", "initial", "init3")},
					pos))
		},
		Drops: []core.Drop{
			{Path: "q3/entry3/cur3", Var: "cu3", AnchorVar: "a3",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(auctionByID(d, "open_auction0"), "current")
				}},
			{Path: "q3/entry3/init3", Var: "in3",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(auctionByID(d, "open_auction0"), "initial")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"cu3": {{Pred: pos, Terms: 13}},
		},
	}
}

// Q4: auctions on which both person0 and person1 bid (the paper's
// happened-before is simplified to co-occurrence; order of sibling
// bidders is outside the learnable predicate family, Section 6).
func q4(doc *xmldoc.Document) *scenario.Scenario {
	both := &xq.Pred{Atoms: []xq.Cmp{
		{Op: xq.OpEq, L: xq.VarOp("a4", xq.MustParseSimplePath("bidder/personref/@person")), R: xq.ConstOp("person0")},
		{Op: xq.OpEq, L: xq.VarOp("a4", xq.MustParseSimplePath("bidder/personref/@person")), R: xq.ConstOp("person1")},
	}}
	return &scenario.Scenario{
		ID:          "XMark-Q4",
		Description: "auctions where both person0 and person1 bid",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q4 (entry4*)>
<!ELEMENT entry4 (cur4)>
<!ELEMENT cur4 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q4",
				anchorFor("a4", "/site/open_auctions/open_auction", "entry4",
					leafFor("cu4", "a4", "current", "cur4"), nil, both))
		},
		Drops: []core.Drop{{
			Path: "q4/entry4/cur4", Var: "cu4", AnchorVar: "a4",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(auctionByID(d, "open_auction0"), "current")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"cu4": {{Pred: both, Terms: 9}},
		},
	}
}

// Q5: how many items were sold for 40 dollars or more.
func q5(doc *xmldoc.Document) *scenario.Scenario {
	ge40 := &xq.Pred{Atoms: []xq.Cmp{{Op: xq.OpGe, L: xq.VarOp("p5", nil), R: xq.ConstOp("40")}}}
	return &scenario.Scenario{
		ID:          "XMark-Q5",
		Description: "number of sales of at least 40 dollars",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT q5 (howmany5)> <!ELEMENT howmany5 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q5",
				countHolder("howmany5",
					bareFor("p5", "", "/site/closed_auctions/closed_auction/price", ge40)))
		},
		Drops: []core.Drop{{
			Path: "q5/howmany5", Var: "p5", Wrap: countWrap, Terms: 2,
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return textContains(d, "price", "45.50")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"p5": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return textContains(d, "price", "45.50")
				},
				Op: xq.OpGe, Const: "40", Terms: 3,
			}},
		},
	}
}

// descriptionsPath covers every location descriptions occur at.
const descriptionsPath = "/(site/regions/(africa|asia|australia|europe|namerica|samerica)/item/description" +
	"|site/open_auctions/open_auction/annotation/description" +
	"|site/closed_auctions/closed_auction/annotation/description" +
	"|site/categories/category/description)"

// Q7: how many pieces of prose are in the database (counts of
// descriptions, texts, and email addresses).
func q7(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMark-Q7",
		Description: "counts of descriptions, texts, and email addresses",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q7 (dcount7, tcount7, mcount7)>
<!ELEMENT dcount7 (#PCDATA)>
<!ELEMENT tcount7 (#PCDATA)>
<!ELEMENT mcount7 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q7",
				countHolder("dcount7", bareFor("d7", "", descriptionsPath)),
				countHolder("tcount7", bareFor("t7", "", "/site//text")),
				countHolder("mcount7", bareFor("m7", "", "/site/people/person/emailaddress")))
		},
		Drops: []core.Drop{
			{Path: "q7/dcount7", Var: "d7", Wrap: countWrap, Terms: 3,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/africa/item[1]/description")
				}},
			{Path: "q7/tcount7", Var: "t7", Wrap: countWrap, Terms: 3,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/africa/item[1]/description/text")
				}},
			{Path: "q7/mcount7", Var: "m7", Wrap: countWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "people/person[1]/emailaddress")
				}},
		},
	}
}

// Q8: for every person, how many items they bought (buyer join).
func q8(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMark-Q8",
		Description: "per-person purchase counts",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q8 (pers8*)>
<!ELEMENT pers8 (pname8, bought8)>
<!ELEMENT pname8 (#PCDATA)>
<!ELEMENT bought8 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q8",
				anchorFor("p8", "/site/people/person", "pers8",
					leafFor("pn8", "p8", "name", "pname8"),
					[]*xq.Node{countHolder("bought8",
						bareFor("b8", "", "/site/closed_auctions/closed_auction/buyer/@person",
							xq.EqJoin("b8", nil, "p8", xq.MustParseSimplePath("@id"))))}))
		},
		Drops: []core.Drop{
			{Path: "q8/pers8/pname8", Var: "pn8", AnchorVar: "p8",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(personByID(d, "person0"), "name")
				}},
			{Path: "q8/pers8/bought8", Var: "b8", Wrap: countWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					b := d.FirstWithLabel("buyer", func(b *xmldoc.Node) bool {
						v, _ := b.Attr("person")
						return v == "person0"
					})
					if b == nil {
						return nil
					}
					return b.AttrNode("person")
				}},
		},
	}
}

// Q9: for every person, the names of the items they bought (triple
// join through closed_auction — a Rel3 relay the C-Learner discovers).
func q9(doc *xmldoc.Document) *scenario.Scenario {
	rel := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("site/closed_auctions/closed_auction"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("itemref/@item")), R: xq.VarOp("i9", xq.MustParseSimplePath("@id"))},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("buyer/@person")), R: xq.VarOp("p9", xq.MustParseSimplePath("@id"))},
		},
	}
	return &scenario.Scenario{
		ID:          "XMark-Q9",
		Description: "per-person names of purchased items",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q9 (pers9*)>
<!ELEMENT pers9 (pname9, item9*)>
<!ELEMENT pname9 (#PCDATA)>
<!ELEMENT item9 (iname9)>
<!ELEMENT iname9 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			i9 := anchorFor("i9", allItemsPath, "item9",
				leafFor("in9", "i9", "name", "iname9"), nil, rel)
			return rootHolder("q9",
				anchorFor("p9", "/site/people/person", "pers9",
					leafFor("pn9", "p9", "name", "pname9"), []*xq.Node{i9}))
		},
		Drops: []core.Drop{
			{Path: "q9/pers9/pname9", Var: "pn9", AnchorVar: "p9",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(personByID(d, "person0"), "name")
				}},
			{Path: "q9/pers9/item9/iname9", Var: "in9", AnchorVar: "i9",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(itemByID(d, "item0"), "name")
				}},
		},
	}
}

// Q10: group persons by interest category with their full record
// (12 Drop Boxes, the paper's largest skeleton).
func q10(doc *xmldoc.Document) *scenario.Scenario {
	fields := []struct {
		box, v, path string
	}{
		{"pincome", "f1", "profile/@income"},
		{"pgender", "f2", "profile/gender"},
		{"page", "f3", "profile/age"},
		{"peducation", "f4", "profile/education"},
		{"pemail", "f5", "emailaddress"},
		{"pstreet", "f6", "address/street"},
		{"pcity", "f7", "address/city"},
		{"pcountry", "f8", "address/country"},
		{"phomepage", "f9", "homepage"},
		{"pcc", "f10", "creditcard"},
	}
	return &scenario.Scenario{
		ID:          "XMark-Q10",
		Description: "persons grouped by interest category with full records",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q10 (group10*)>
<!ELEMENT group10 (gname10, prec10*)>
<!ELEMENT gname10 (#PCDATA)>
<!ELEMENT prec10 (pname10, pincome?, pgender?, page?, peducation?, pemail?, pstreet?, pcity?, pcountry?, phomepage?, pcc?)>
<!ELEMENT pname10 (#PCDATA)> <!ELEMENT pincome (#PCDATA)> <!ELEMENT pgender (#PCDATA)>
<!ELEMENT page (#PCDATA)> <!ELEMENT peducation (#PCDATA)> <!ELEMENT pemail (#PCDATA)>
<!ELEMENT pstreet (#PCDATA)> <!ELEMENT pcity (#PCDATA)> <!ELEMENT pcountry (#PCDATA)>
<!ELEMENT phomepage (#PCDATA)> <!ELEMENT pcc (#PCDATA)>`),
		Truth: func() *xq.Tree {
			var kids []*xq.Node
			for _, f := range fields {
				kids = append(kids, plainFor(f.v, "p10", f.path, f.box))
			}
			p10 := anchorFor("p10", "/site/people/person", "prec10",
				leafFor("pn10", "p10", "name", "pname10"), kids,
				xq.EqJoin("p10", xq.MustParseSimplePath("profile/interest/@category"),
					"c10", xq.MustParseSimplePath("@id")))
			return rootHolder("q10",
				anchorFor("c10", "/site/categories/category", "group10",
					leafFor("gn10", "c10", "name", "gname10"), []*xq.Node{p10}))
		},
		Drops: q10Drops(fields),
	}
}

func q10Drops(fields []struct{ box, v, path string }) []core.Drop {
	drops := []core.Drop{
		{Path: "q10/group10/gname10", Var: "gn10", AnchorVar: "c10",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(categoryByID(d, "category0"), "name")
			}},
		{Path: "q10/group10/prec10/pname10", Var: "pn10", AnchorVar: "p10",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(personByID(d, "person1"), "name")
			}},
	}
	for _, f := range fields {
		path := f.path
		drops = append(drops, core.Drop{
			Path: "q10/group10/prec10/" + f.box, Var: f.v,
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return selPath(personByID(d, "person1"), path)
			},
		})
	}
	return drops
}
