package xmark

import (
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Q11: for every person, the number of open auctions whose initial bid
// the person's income covers five-thousand-fold.
func q11(doc *xmldoc.Document) *scenario.Scenario {
	afford := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpGt,
		L:  xq.VarOp("p11", xq.MustParseSimplePath("profile/@income")),
		R:  xq.Operand{Var: "o11", Mul: 5000},
	}}}
	return &scenario.Scenario{
		ID:          "XMark-Q11",
		Description: "per-person count of auctions with initial*5000 < income",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q11 (pers11*)>
<!ELEMENT pers11 (pname11, opens11)>
<!ELEMENT pname11 (#PCDATA)>
<!ELEMENT opens11 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q11",
				anchorFor("p11", "/site/people/person", "pers11",
					leafFor("pn11", "p11", "name", "pname11"),
					[]*xq.Node{countHolder("opens11",
						bareFor("o11", "", "/site/open_auctions/open_auction/initial", afford))}))
		},
		Drops: []core.Drop{
			{Path: "q11/pers11/pname11", Var: "pn11", AnchorVar: "p11",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(personByID(d, "person1"), "name")
				}},
			{Path: "q11/pers11/opens11", Var: "o11", Wrap: countWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(auctionByID(d, "open_auction0"), "initial")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"o11": {{Pred: afford, Terms: 5}},
		},
	}
}

// Q12: Q11 restricted to persons with income over 50000.
func q12(doc *xmldoc.Document) *scenario.Scenario {
	afford := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpGt,
		L:  xq.VarOp("p12", xq.MustParseSimplePath("profile/@income")),
		R:  xq.Operand{Var: "o12", Mul: 5000},
	}}}
	rich := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpGt,
		L:  xq.VarOp("p12", xq.MustParseSimplePath("profile/@income")),
		R:  xq.ConstOp("50000"),
	}}}
	return &scenario.Scenario{
		ID:          "XMark-Q12",
		Description: "Q11 for persons with income over 50000",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q12 (pers12*)>
<!ELEMENT pers12 (pname12, opens12)>
<!ELEMENT pname12 (#PCDATA)>
<!ELEMENT opens12 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q12",
				anchorFor("p12", "/site/people/person", "pers12",
					leafFor("pn12", "p12", "name", "pname12"),
					[]*xq.Node{countHolder("opens12",
						bareFor("o12", "", "/site/open_auctions/open_auction/initial", afford))},
					rich))
		},
		Drops: []core.Drop{
			{Path: "q12/pers12/pname12", Var: "pn12", AnchorVar: "p12",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(personByID(d, "person1"), "name")
				}},
			{Path: "q12/pers12/opens12", Var: "o12", Wrap: countWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(auctionByID(d, "open_auction0"), "initial")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"pn12": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return selPath(personByID(d, "person1"), "profile/@income")
				},
				Op: xq.OpGt, Const: "50000", Terms: 3,
			}},
			"o12": {{Pred: afford, Terms: 5}},
		},
	}
}

// Q13: names and descriptions of items in Australia.
func q13(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMark-Q13",
		Description: "names and descriptions of Australian items",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q13 (item13*)>
<!ELEMENT item13 (name13, desc13)>
<!ELEMENT name13 (#PCDATA)>
<!ELEMENT desc13 ANY>`),
		Truth: func() *xq.Tree {
			return rootHolder("q13",
				anchorFor("t13", "/site/regions/australia/item", "item13",
					leafFor("n13", "t13", "name", "name13"),
					[]*xq.Node{plainFor("d13", "t13", "description", "desc13")}))
		},
		Drops: []core.Drop{
			{Path: "q13/item13/name13", Var: "n13", AnchorVar: "t13",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/australia/item[1]/name")
				}},
			{Path: "q13/item13/desc13", Var: "d13",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/australia/item[1]/description")
				}},
		},
	}
}

// Q14: names of items whose description mentions "gold".
func q14(doc *xmldoc.Document) *scenario.Scenario {
	gold := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpContains,
		L:  xq.VarOp("i14", xq.MustParseSimplePath("description")),
		R:  xq.ConstOp("gold"),
	}}}
	goldItem := func(d *xmldoc.Document) *xmldoc.Node {
		return d.FirstWithLabel("item", func(it *xmldoc.Node) bool {
			desc := it.FirstChildNamed("description")
			return desc != nil && strings.Contains(desc.Text(), "gold")
		})
	}
	return &scenario.Scenario{
		ID:          "XMark-Q14",
		Description: "items whose description contains the word gold",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q14 (gitem14*)>
<!ELEMENT gitem14 (gname14)>
<!ELEMENT gname14 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q14",
				anchorFor("i14", allItemsPath, "gitem14",
					leafFor("gn14", "i14", "name", "gname14"), nil, gold))
		},
		Drops: []core.Drop{{
			Path: "q14/gitem14/gname14", Var: "gn14", AnchorVar: "i14",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(goldItem(d), "name")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"gn14": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return childNamed(goldItem(d), "description")
				},
				Op: xq.OpContains, Const: "gold", Terms: 3,
			}},
		},
	}
}

// deepKeywordPath is Q15's long path chase.
const deepKeywordPath = "/site/open_auctions/open_auction/annotation/description" +
	"/parlist/listitem/parlist/listitem/text/emph/keyword"

// deepKeyword matches the keywords buried in doubly nested parlists of
// an auction annotation.
func deepKeyword(kw *xmldoc.Node) bool {
	return strings.Contains(kw.PathString(), "open_auction/annotation/description/parlist/listitem/parlist/listitem")
}

// Q15: keywords buried in doubly nested parlists of auction annotations.
func q15(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMark-Q15",
		Description: "deeply nested annotation keywords",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT q15 (ktext15*)> <!ELEMENT ktext15 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q15", plainFor("k15", "", deepKeywordPath, "ktext15"))
		},
		Drops: []core.Drop{{
			Path: "q15/ktext15", Var: "k15",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return d.FirstWithLabel("keyword", deepKeyword)
			},
		}},
	}
}

// Q16: auctions that have such a deeply nested keyword (tested with the
// exists predicate from a Condition Box).
func q16(doc *xmldoc.Document) *scenario.Scenario {
	hasDeep := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpExists,
		L: xq.VarOp("a16", xq.MustParseSimplePath(
			"annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword")),
	}}}
	deepAuction := func(d *xmldoc.Document) *xmldoc.Node {
		cur := d.FirstWithLabel("keyword", deepKeyword)
		for cur != nil && cur.Name != "open_auction" {
			cur = cur.Parent
		}
		return cur
	}
	return &scenario.Scenario{
		ID:          "XMark-Q16",
		Description: "auctions with a deeply nested annotation keyword",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q16 (entry16*)>
<!ELEMENT entry16 (type16)>
<!ELEMENT type16 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q16",
				anchorFor("a16", "/site/open_auctions/open_auction", "entry16",
					leafFor("t16", "a16", "type", "type16"), nil, hasDeep))
		},
		Drops: []core.Drop{{
			Path: "q16/entry16/type16", Var: "t16", AnchorVar: "a16",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(deepAuction(d), "type")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"t16": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					a := deepAuction(d)
					if a == nil {
						return nil
					}
					hits := xq.EvalSimplePath(a, xq.MustParseSimplePath(
						"annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword"))
					if len(hits) == 0 {
						return nil
					}
					return hits[0]
				},
				Op: xq.OpExists, Terms: 2,
			}},
		},
	}
}

// Q17: people without a homepage (the paper's empty() via a Negative
// Condition Box: the negative counterexample supplies the homepage).
func q17(doc *xmldoc.Document) *scenario.Scenario {
	noHome := &xq.Pred{
		Negated: true,
		Atoms:   []xq.Cmp{{Op: xq.OpExists, L: xq.VarOp("h17", xq.MustParseSimplePath("homepage"))}},
	}
	return &scenario.Scenario{
		ID:          "XMark-Q17",
		Description: "people without a homepage",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q17 (pers17*)>
<!ELEMENT pers17 (pname17)>
<!ELEMENT pname17 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return rootHolder("q17",
				anchorFor("h17", "/site/people/person", "pers17",
					leafFor("pn17", "h17", "name", "pname17"), nil, noHome))
		},
		Drops: []core.Drop{{
			Path: "q17/pers17/pname17", Var: "pn17", AnchorVar: "h17",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(d.FirstWithLabel("person", func(p *xmldoc.Node) bool {
					return p.FirstChildNamed("homepage") == nil
				}), "name")
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"pn17": {{
				// NCB: the negative counterexample is a person name; the
				// user drops that person's homepage.
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					if ce == nil || ce.Parent == nil {
						return nil
					}
					return ce.Parent.FirstChildNamed("homepage")
				},
				Op: xq.OpExists, Negated: true, Terms: 2,
			}},
		},
	}
}

// Q18: converted auction initials (the paper's Q18 uses a user-defined
// function; XLearner learns the equivalent arithmetic via a function
// Drop Box, footnote 5).
func q18(doc *xmldoc.Document) *scenario.Scenario {
	convert := func(inner xq.RetExpr) xq.RetExpr {
		return xq.RBin{Op: "*",
			L: xq.RFunc{Name: "data", Args: []xq.RetExpr{inner}},
			R: xq.RNum{Value: 2.20371}}
	}
	return &scenario.Scenario{
		ID:          "XMark-Q18",
		Description: "currency-converted auction initials",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT q18 (conv18*)> <!ELEMENT conv18 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			n := &xq.Node{
				Var: "i18", Path: mustPath("/site/open_auctions/open_auction/initial"),
				Ret: xq.RElem{Tag: "conv18", Kids: []xq.RetExpr{convert(xq.RVar{Name: "i18"})}},
			}
			return rootHolder("q18", n)
		},
		Drops: []core.Drop{{
			Path: "q18/conv18", Var: "i18", Wrap: convert, WrapEach: true, Terms: 2,
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return childNamed(auctionByID(d, "open_auction0"), "initial")
			},
		}},
	}
}

// Q19: all items with name and location, ordered by name (OrderBy Box).
func q19(doc *xmldoc.Document) *scenario.Scenario {
	key := xq.SortKey{Var: "t19", Path: xq.MustParseSimplePath("name")}
	return &scenario.Scenario{
		ID:          "XMark-Q19",
		Description: "items with location, ordered by name",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q19 (item19*)>
<!ELEMENT item19 (name19, loc19)>
<!ELEMENT name19 (#PCDATA)>
<!ELEMENT loc19 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			a := anchorFor("t19", allItemsPath, "item19",
				leafFor("n19", "t19", "name", "name19"),
				[]*xq.Node{plainFor("l19", "t19", "location", "loc19")})
			a.OrderBy = []xq.SortKey{key}
			return rootHolder("q19", a)
		},
		Drops: []core.Drop{
			{Path: "q19/item19/name19", Var: "n19", AnchorVar: "t19",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/africa/item[1]/name")
				}},
			{Path: "q19/item19/loc19", Var: "l19",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return selPath(d.Root(), "regions/africa/item[1]/location")
				}},
		},
		Orders: map[string][]xq.SortKey{
			"n19": {key},
		},
	}
}

// Q20: counts of people by income bracket.
func q20(doc *xmldoc.Document) *scenario.Scenario {
	pref := &xq.Pred{Atoms: []xq.Cmp{{Op: xq.OpGe, L: xq.VarOp("inc1", nil), R: xq.ConstOp("100000")}}}
	standard := &xq.Pred{Atoms: []xq.Cmp{
		{Op: xq.OpGe, L: xq.VarOp("inc2", nil), R: xq.ConstOp("30000")},
		{Op: xq.OpLt, L: xq.VarOp("inc2", nil), R: xq.ConstOp("100000")},
	}}
	challenge := &xq.Pred{Atoms: []xq.Cmp{{Op: xq.OpLt, L: xq.VarOp("inc3", nil), R: xq.ConstOp("30000")}}}
	noIncome := &xq.Pred{
		Negated:  true,
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("site/people/person"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("name")), R: xq.VarOp("n20", nil)},
			{Op: xq.OpExists, L: xq.VarOp("w", xq.MustParseSimplePath("profile/@income"))},
		},
	}
	incomeIn := func(lo, hi float64) func(*xmldoc.Document) *xmldoc.Node {
		return func(d *xmldoc.Document) *xmldoc.Node {
			p := d.FirstWithLabel("profile", func(p *xmldoc.Node) bool {
				a := p.AttrNode("income")
				if a == nil {
					return false
				}
				v := xq.StrValue(a.Value)
				return v.IsNum && v.Num >= lo && v.Num < hi
			})
			if p == nil {
				return nil
			}
			return p.AttrNode("income")
		}
	}
	return &scenario.Scenario{
		ID:          "XMark-Q20",
		Description: "counts of people by income bracket",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT q20 (preferred20, standard20, challenge20, na20)>
<!ELEMENT preferred20 (#PCDATA)> <!ELEMENT standard20 (#PCDATA)>
<!ELEMENT challenge20 (#PCDATA)> <!ELEMENT na20 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			incomes := "/site/people/person/profile/@income"
			return rootHolder("q20",
				countHolder("preferred20", bareFor("inc1", "", incomes, pref)),
				countHolder("standard20", bareFor("inc2", "", incomes, standard)),
				countHolder("challenge20", bareFor("inc3", "", incomes, challenge)),
				countHolder("na20", bareFor("n20", "", "/site/people/person/name", noIncome)))
		},
		Drops: []core.Drop{
			{Path: "q20/preferred20", Var: "inc1", Wrap: countWrap, Terms: 2,
				Select: incomeIn(100000, 1e18)},
			{Path: "q20/standard20", Var: "inc2", Wrap: countWrap, Terms: 2,
				Select: incomeIn(30000, 100000)},
			{Path: "q20/challenge20", Var: "inc3", Wrap: countWrap, Terms: 2,
				Select: incomeIn(0, 30000)},
			{Path: "q20/na20", Var: "n20", Wrap: countWrap, Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return childNamed(d.FirstWithLabel("person", func(p *xmldoc.Node) bool {
						return selPath(p, "profile/@income") == nil
					}), "name")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"inc1": {{Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
				return incomeIn(100000, 1e18)(d)
			}, Op: xq.OpGe, Const: "100000", Terms: 3}},
			"inc2": {{Pred: standard, Terms: 4}},
			"inc3": {{Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
				return incomeIn(0, 30000)(d)
			}, Op: xq.OpLt, Const: "30000", Terms: 3}},
			"n20": {{
				// NCB: the counterexample person has an income.
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					if ce == nil || ce.Parent == nil {
						return nil
					}
					return selPath(ce.Parent, "profile/@income")
				},
				Op: xq.OpExists, Negated: true, Terms: 4,
			}},
		},
	}
}
