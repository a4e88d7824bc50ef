package xmp

import (
	"strings"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Scenarios returns the 11 XMP queries of Figure 16 bottom (Q1–Q5,
// Q7–Q12; Q6 is the use case's one query outside XQI). Where the W3C
// query uses constructs outside the paper's fragment (distinct-values
// grouping in Q4, element-name introspection in Q8), the scenario
// models the XQI-equivalent the paper's system would learn, noted in
// the description.
func Scenarios() []*scenario.Scenario {
	doc := Doc()
	return []*scenario.Scenario{
		xq1(doc), xq2(doc), xq3(doc), xq4(doc), xq5(doc),
		xq7(doc), xq8(doc), xq9(doc), xq10(doc), xq11(doc), xq12(doc),
	}
}

// ScenarioByID returns the named scenario ("Q1".."Q12"), or nil.
func ScenarioByID(id string) *scenario.Scenario {
	for _, s := range Scenarios() {
		if s.ID == "XMP-"+id || s.ID == id {
			return s
		}
	}
	return nil
}

func mustDTD(src string) *dtd.DTD { return dtd.MustParse(src) }

func bookByTitle(doc *xmldoc.Document, title string) *xmldoc.Node {
	return doc.FirstWithLabel("book", func(b *xmldoc.Node) bool {
		t := b.FirstChildNamed("title")
		return t != nil && t.Text() == title && b.Parent != nil && b.Parent.Name == "bib"
	})
}

func entryByTitle(doc *xmldoc.Document, title string) *xmldoc.Node {
	return doc.FirstWithLabel("entry", func(e *xmldoc.Node) bool {
		t := e.FirstChildNamed("title")
		return t != nil && t.Text() == title
	})
}

// textIs returns a FirstWithLabel match for nodes whose text is s.
func textIs(s string) func(*xmldoc.Node) bool {
	return func(n *xmldoc.Node) bool { return n.Text() == s }
}

// awAfter1991 is Q1/Q7's selection: Addison-Wesley books after 1991.
func awAfter1991(anchorVar string) *xq.Pred {
	return &xq.Pred{Atoms: []xq.Cmp{
		{Op: xq.OpEq, L: xq.VarOp(anchorVar, xq.MustParseSimplePath("publisher")), R: xq.ConstOp("Addison-Wesley")},
		{Op: xq.OpGt, L: xq.VarOp(anchorVar, xq.MustParseSimplePath("@year")), R: xq.ConstOp("1991")},
	}}
}

// Q1: books published by Addison-Wesley after 1991, with title and year.
func xq1(doc *xmldoc.Document) *scenario.Scenario {
	pred := awAfter1991("b1")
	return &scenario.Scenario{
		ID:          "XMP-Q1",
		Description: "Addison-Wesley books after 1991 with title and year",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x1 (book1*)>
<!ELEMENT book1 (btitle1, byear1)>
<!ELEMENT btitle1 (#PCDATA)> <!ELEMENT byear1 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x1",
				scenario.AnchorFor("b1", "/xmp/bib/book", "book1",
					scenario.LeafFor("t1v", "b1", "title", "btitle1"),
					[]*xq.Node{scenario.PlainFor("y1", "b1", "@year", "byear1")},
					pred))
		},
		Drops: []core.Drop{
			{Path: "x1/book1/btitle1", Var: "t1v", AnchorVar: "b1",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
			{Path: "x1/book1/byear1", Var: "y1",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").AttrNode("year")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"t1v": {{Pred: pred, Terms: 3}},
		},
	}
}

// Q2: for each book, its title and authors (the use case's flat
// title-author pairs, grouped per book as the template dictates).
func xq2(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMP-Q2",
		Description: "title and authors of every book",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x2 (book2*)>
<!ELEMENT book2 (btitle2, bauthor2*)>
<!ELEMENT btitle2 (#PCDATA)> <!ELEMENT bauthor2 ANY>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x2",
				scenario.AnchorFor("b2", "/xmp/bib/book", "book2",
					scenario.LeafFor("t2v", "b2", "title", "btitle2"),
					[]*xq.Node{scenario.PlainFor("a2", "b2", "author", "bauthor2")}))
		},
		Drops: []core.Drop{
			{Path: "x2/book2/btitle2", Var: "t2v", AnchorVar: "b2",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("title")
				}},
			{Path: "x2/book2/bauthor2", Var: "a2",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("author")
				}},
		},
	}
}

// Q3: for each book, title and a wrapped list of all authors.
func xq3(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMP-Q3",
		Description: "title with a wrapped author list per book",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x3 (book3*)>
<!ELEMENT book3 (btitle3, authors3)>
<!ELEMENT btitle3 (#PCDATA)>
<!ELEMENT authors3 (author3*)>
<!ELEMENT author3 ANY>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x3",
				scenario.AnchorFor("b3", "/xmp/bib/book", "book3",
					scenario.LeafFor("t3v", "b3", "title", "btitle3"),
					[]*xq.Node{scenario.Holder("authors3",
						scenario.PlainFor("a3", "b3", "author", "author3"))}))
		},
		Drops: []core.Drop{
			{Path: "x3/book3/btitle3", Var: "t3v", AnchorVar: "b3",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("title")
				}},
			{Path: "x3/book3/authors3/author3", Var: "a3",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("author")
				}},
		},
	}
}

// Q4: for each author, the titles of their books (the use case groups
// by distinct author value; learned per author occurrence, joined by
// last name through the containing book).
func xq4(doc *xmldoc.Document) *scenario.Scenario {
	byAuthor := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("xmp/bib/book"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("title")), R: xq.VarOp("t4", nil)},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("author/last")), R: xq.VarOp("au4", xq.MustParseSimplePath("last"))},
		},
	}
	return &scenario.Scenario{
		ID:          "XMP-Q4",
		Description: "per-author book titles (value join through the book)",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x4 (arec4*)>
<!ELEMENT arec4 (aname4, atitle4*)>
<!ELEMENT aname4 (#PCDATA)> <!ELEMENT atitle4 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x4",
				scenario.AnchorFor("au4", "/xmp/bib/book/author", "arec4",
					scenario.LeafFor("l4", "au4", "last", "aname4"),
					[]*xq.Node{scenario.PlainFor("t4", "", "/xmp/bib/book/title", "atitle4", byAuthor)}))
		},
		Drops: []core.Drop{
			{Path: "x4/arec4/aname4", Var: "l4", AnchorVar: "au4",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("author").FirstChildNamed("last")
				}},
			{Path: "x4/arec4/atitle4", Var: "t4", Terms: 2,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
		},
	}
}

// Q5: books carried by both bib and reviews, with both prices.
func xq5(doc *xmldoc.Document) *scenario.Scenario {
	hasReview := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("xmp/reviews/entry"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("title")), R: xq.VarOp("b5", xq.MustParseSimplePath("title"))},
		},
	}
	reviewPrice := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("xmp/reviews/entry"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("price")), R: xq.VarOp("rp5", nil)},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("title")), R: xq.VarOp("b5", xq.MustParseSimplePath("title"))},
		},
	}
	return &scenario.Scenario{
		ID:          "XMP-Q5",
		Description: "books with both a bib price and a review price",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x5 (book5*)>
<!ELEMENT book5 (btitle5, bprice5, rprice5*)>
<!ELEMENT btitle5 (#PCDATA)> <!ELEMENT bprice5 (#PCDATA)> <!ELEMENT rprice5 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x5",
				scenario.AnchorFor("b5", "/xmp/bib/book", "book5",
					scenario.LeafFor("t5v", "b5", "title", "btitle5"),
					[]*xq.Node{
						scenario.PlainFor("bp5", "b5", "price", "bprice5"),
						scenario.PlainFor("rp5", "", "/xmp/reviews/entry/price", "rprice5", reviewPrice),
					},
					hasReview))
		},
		Drops: []core.Drop{
			{Path: "x5/book5/btitle5", Var: "t5v", AnchorVar: "b5",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
			{Path: "x5/book5/bprice5", Var: "bp5",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("price")
				}},
			{Path: "x5/book5/rprice5", Var: "rp5",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return entryByTitle(d, "TCP/IP Illustrated").FirstChildNamed("price")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"t5v": {{Pred: hasReview, Terms: 3}},
			// Fallback for learners whose probe order leaves the review
			// join under-determined (the duplicate 65.95 prices make the
			// instance value-ambiguous); served only on demand.
			"rp5": {{Pred: reviewPrice, Terms: 3}},
		},
	}
}

// Q7: Addison-Wesley books after 1991, titles in alphabetic order
// (OrderBy Box).
func xq7(doc *xmldoc.Document) *scenario.Scenario {
	pred := awAfter1991("b7")
	key := xq.SortKey{Var: "b7", Path: xq.MustParseSimplePath("title")}
	return &scenario.Scenario{
		ID:          "XMP-Q7",
		Description: "sorted titles of Addison-Wesley books after 1991",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x7 (book7*)>
<!ELEMENT book7 (btitle7)>
<!ELEMENT btitle7 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			a := scenario.AnchorFor("b7", "/xmp/bib/book", "book7",
				scenario.LeafFor("t7v", "b7", "title", "btitle7"), nil, pred)
			a.OrderBy = []xq.SortKey{key}
			return scenario.RootHolder("x7", a)
		},
		Drops: []core.Drop{
			{Path: "x7/book7/btitle7", Var: "t7v", AnchorVar: "b7",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"t7v": {{Pred: pred, Terms: 3}},
		},
		Orders: map[string][]xq.SortKey{"t7v": {key}},
	}
}

// Q8: books with author Suciu (the use case's element-name
// introspection has no XQ-Tree form; the learned equivalent selects on
// the author value, which coincides on this instance).
func xq8(doc *xmldoc.Document) *scenario.Scenario {
	return &scenario.Scenario{
		ID:          "XMP-Q8",
		Description: "books with author Suciu",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x8 (book8*)>
<!ELEMENT book8 (btitle8)>
<!ELEMENT btitle8 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x8",
				scenario.AnchorFor("b8", "/xmp/bib/book", "book8",
					scenario.LeafFor("t8v", "b8", "title", "btitle8"), nil,
					&xq.Pred{Atoms: []xq.Cmp{{
						Op: xq.OpEq,
						L:  xq.VarOp("b8", xq.MustParseSimplePath("author/last")),
						R:  xq.ConstOp("Suciu"),
					}}}))
		},
		Drops: []core.Drop{
			{Path: "x8/book8/btitle8", Var: "t8v", AnchorVar: "b8",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("title")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"t8v": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return d.FirstWithLabel("last", textIs("Suciu"))
				},
				Op: xq.OpEq, Const: "Suciu", Terms: 3,
			}},
		},
	}
}

// Q9: chapter and section titles containing "XML".
func xq9(doc *xmldoc.Document) *scenario.Scenario {
	containsXML := &xq.Pred{Atoms: []xq.Cmp{{
		Op: xq.OpContains, L: xq.VarOp("t9", nil), R: xq.ConstOp("XML"),
	}}}
	return &scenario.Scenario{
		ID:          "XMP-Q9",
		Description: "chapter and section titles containing XML",
		Doc:         func() *xmldoc.Document { return doc },
		Target:      mustDTD(`<!ELEMENT x9 (t9e*)> <!ELEMENT t9e (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x9",
				scenario.PlainFor("t9", "",
					"/xmp/books/chapter/(title|section/title|section/section/title)", "t9e",
					containsXML))
		},
		Drops: []core.Drop{{
			Path: "x9/t9e", Var: "t9",
			Select: func(d *xmldoc.Document) *xmldoc.Node {
				return d.FirstWithLabel("title", textIs("XML Processing"))
			},
		}},
		Boxes: map[string][]core.BoxEntry{
			"t9": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return d.FirstWithLabel("title", textIs("XML Processing"))
				},
				Op: xq.OpContains, Const: "XML", Terms: 3,
			}},
		},
	}
}

// Q10: for each book, the minimum price across price sources (min()
// in a function Drop Box; join through the prices entry).
func xq10(doc *xmldoc.Document) *scenario.Scenario {
	samePriceBook := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("xmp/prices/book"),
		Atoms: []xq.Cmp{
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("price")), R: xq.VarOp("pp10", nil)},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("title")), R: xq.VarOp("b10", xq.MustParseSimplePath("title"))},
		},
	}
	return &scenario.Scenario{
		ID:          "XMP-Q10",
		Description: "minimum price per book across sources",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x10 (book10*)>
<!ELEMENT book10 (btitle10, minprice10)>
<!ELEMENT btitle10 (#PCDATA)> <!ELEMENT minprice10 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x10",
				scenario.AnchorFor("b10", "/xmp/bib/book", "book10",
					scenario.LeafFor("t10v", "b10", "title", "btitle10"),
					[]*xq.Node{scenario.AggHolder("minprice10", "min",
						scenario.BareFor("pp10", "", "/xmp/prices/book/price", samePriceBook))}))
		},
		Drops: []core.Drop{
			{Path: "x10/book10/btitle10", Var: "t10v", AnchorVar: "b10",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
			{Path: "x10/book10/minprice10", Var: "pp10", Wrap: scenario.MinWrap, Terms: 4,
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					b := d.FirstWithLabel("book", func(b *xmldoc.Node) bool {
						return b.Parent != nil && b.Parent.Name == "prices" &&
							b.FirstChildNamed("title").Text() == "TCP/IP Illustrated"
					})
					if b == nil {
						return nil
					}
					return b.FirstChildNamed("price")
				}},
		},
	}
}

// Q11: books split into expensive (price >= 65) and affordable groups.
func xq11(doc *xmldoc.Document) *scenario.Scenario {
	exp := &xq.Pred{Atoms: []xq.Cmp{{Op: xq.OpGe, L: xq.VarOp("e11", xq.MustParseSimplePath("price")), R: xq.ConstOp("65")}}}
	cheap := &xq.Pred{Atoms: []xq.Cmp{{Op: xq.OpLt, L: xq.VarOp("c11", xq.MustParseSimplePath("price")), R: xq.ConstOp("65")}}}
	return &scenario.Scenario{
		ID:          "XMP-Q11",
		Description: "books grouped by price bracket",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x11 (expensive11, affordable11)>
<!ELEMENT expensive11 (ebook11*)>
<!ELEMENT ebook11 (etitle11, eprice11)>
<!ELEMENT etitle11 (#PCDATA)> <!ELEMENT eprice11 (#PCDATA)>
<!ELEMENT affordable11 (cbook11*)>
<!ELEMENT cbook11 (ctitle11, cprice11)>
<!ELEMENT ctitle11 (#PCDATA)> <!ELEMENT cprice11 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			return scenario.RootHolder("x11",
				scenario.Holder("expensive11",
					scenario.AnchorFor("e11", "/xmp/bib/book", "ebook11",
						scenario.LeafFor("et11", "e11", "title", "etitle11"),
						[]*xq.Node{scenario.PlainFor("ep11", "e11", "price", "eprice11")},
						exp)),
				scenario.Holder("affordable11",
					scenario.AnchorFor("c11", "/xmp/bib/book", "cbook11",
						scenario.LeafFor("ct11", "c11", "title", "ctitle11"),
						[]*xq.Node{scenario.PlainFor("cp11", "c11", "price", "cprice11")},
						cheap)))
		},
		Drops: []core.Drop{
			{Path: "x11/expensive11/ebook11/etitle11", Var: "et11", AnchorVar: "e11",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
			{Path: "x11/expensive11/ebook11/eprice11", Var: "ep11",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("price")
				}},
			{Path: "x11/affordable11/cbook11/ctitle11", Var: "ct11", AnchorVar: "c11",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("title")
				}},
			{Path: "x11/affordable11/cbook11/cprice11", Var: "cp11",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("price")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"et11": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("price")
				},
				Op: xq.OpGe, Const: "65", Terms: 3,
			}},
			"ct11": {{
				Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
					return bookByTitle(d, "Data on the Web").FirstChildNamed("price")
				},
				Op: xq.OpLt, Const: "65", Terms: 3,
			}},
		},
	}
}

// Q12: books sharing an author with a differently titled book, sorted
// by publisher then title (two OrderBy Boxes).
func xq12(doc *xmldoc.Document) *scenario.Scenario {
	shared := &xq.Pred{
		RelayVar: "w", RelayPath: xq.MustParseSimplePath("xmp/bib/book"),
		Atoms: []xq.Cmp{
			{Op: xq.OpNe, L: xq.VarOp("w", xq.MustParseSimplePath("title")), R: xq.VarOp("b12", xq.MustParseSimplePath("title"))},
			{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("author/last")), R: xq.VarOp("b12", xq.MustParseSimplePath("author/last"))},
		},
	}
	keys := []xq.SortKey{
		{Var: "b12", Path: xq.MustParseSimplePath("publisher")},
		{Var: "b12", Path: xq.MustParseSimplePath("title")},
	}
	return &scenario.Scenario{
		ID:          "XMP-Q12",
		Description: "books sharing an author with another book, sorted",
		Doc:         func() *xmldoc.Document { return doc },
		Target: mustDTD(`
<!ELEMENT x12 (sbook12*)>
<!ELEMENT sbook12 (stitle12)>
<!ELEMENT stitle12 (#PCDATA)>`),
		Truth: func() *xq.Tree {
			a := scenario.AnchorFor("b12", "/xmp/bib/book", "sbook12",
				scenario.LeafFor("st12", "b12", "title", "stitle12"), nil, shared)
			a.OrderBy = keys
			return scenario.RootHolder("x12", a)
		},
		Drops: []core.Drop{
			{Path: "x12/sbook12/stitle12", Var: "st12", AnchorVar: "b12",
				Select: func(d *xmldoc.Document) *xmldoc.Node {
					return bookByTitle(d, "TCP/IP Illustrated").FirstChildNamed("title")
				}},
		},
		Boxes: map[string][]core.BoxEntry{
			"st12": {{Pred: shared, Terms: 10}},
		},
		Orders: map[string][]xq.SortKey{"st12": keys},
	}
}

var _ = strings.Contains
