package relaxng

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
)

func mustDTD(src string) *dtd.DTD { return dtd.MustParse(src) }

// auctionSchema mirrors the running example's source structure in
// compact syntax.
const auctionSchema = `
# the paper's Figure 1(a) fragment
Item = element item {
  attribute id { text },
  element name { text },
  element incategory { attribute category { text } },
  element description { text }
}
Region = element africa { Item* } | element asia { Item* } | element europe { Item* }
start = element site {
  element regions { Region* },
  element categories {
    element category { attribute id { text }, element name { text } }*
  },
  element closed_auctions {
    element closed_auction {
      element price { text },
      element itemref { attribute item { text } }
    }*
  }
}`

func TestParseAndAccepts(t *testing.T) {
	s := MustParse(auctionSchema)
	yes := [][]string{
		nil,
		{"site"},
		{"site", "regions", "europe", "item", "name"},
		{"site", "regions", "africa", "item", "@id"},
		{"site", "categories", "category", "name"},
		{"site", "closed_auctions", "closed_auction", "itemref", "@item"},
	}
	no := [][]string{
		{"@id"},
		{"regions"},
		{"site", "europe"},
		{"site", "regions", "europe", "name"},
		{"site", "regions", "europe", "item", "@bogus"},
		{"site", "regions", "europe", "item", "@id", "name"}, // attr mid-path
		{"site", "unknown"},
	}
	for _, p := range yes {
		if !s.AcceptsPath(p) {
			t.Errorf("AcceptsPath(%v) = false, want true", p)
		}
	}
	for _, p := range no {
		if s.AcceptsPath(p) {
			t.Errorf("AcceptsPath(%v) = true, want false", p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`Foo = element a { text }`, // no start
		`start =`,
		`start = element { text }`,
		`start = element a { text`,
		`start = element a ( text )`,
		`start = element a { text } start = element b { text }
		 start = element c { text }`, // later start overrides are fine; dup defs are not:
	}
	for _, src := range bad[:6] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	if _, err := Parse(`A = text
A = empty
start = element x { A }`); err == nil {
		t.Error("duplicate definition must fail")
	}
}

func TestRecursiveDefinitions(t *testing.T) {
	s := MustParse(`
Part = element part { element name { text }, Part* }
start = element assembly { Part+ }`)
	if !s.AcceptsPath([]string{"assembly", "part", "part", "part", "name"}) {
		t.Fatal("recursive nesting must be realizable")
	}
	if s.AcceptsPath([]string{"assembly", "name"}) {
		t.Fatal("name only occurs inside part")
	}
}

func TestChoiceAndComments(t *testing.T) {
	s := MustParse(`
# choose one
start = element r { (element a { text } | element b { empty })* }`)
	if !s.AcceptsPath([]string{"r", "a"}) || !s.AcceptsPath([]string{"r", "b"}) {
		t.Fatal("both choice branches realizable")
	}
	if s.AcceptsPath([]string{"r", "c"}) {
		t.Fatal("c is not declared")
	}
}

// TestAsR1Filter drives a full learning session with the Relax NG
// filter behind rule R1 — the paper's prototype configuration.
func TestAsR1Filter(t *testing.T) {
	s := MustParse(auctionSchema)

	doc := xmldoc.MustParse(`<site>
	  <regions>
	    <africa></africa>
	    <europe>
	      <item id="i7"><name>H. Potter</name><incategory category="c2"/><description>Best Seller</description></item>
	      <item id="i6"><name>Encyclopedia</name><incategory category="c2"/><description>Heavy</description></item>
	    </europe>
	    <asia>
	      <item id="i10"><name>XML book</name><incategory category="c2"/><description>how-to</description></item>
	    </asia>
	  </regions>
	  <categories><category id="c2"><name>book</name></category></categories>
	  <closed_auctions>
	    <closed_auction><price>50</price><itemref item="i7"/></closed_auction>
	    <closed_auction><price>700</price><itemref item="i6"/></closed_auction>
	    <closed_auction><price>100</price><itemref item="i10"/></closed_auction>
	  </closed_auctions>
	</site>`)

	truth := scenario.RootHolder("out",
		scenario.PlainFor("x", "", "/site/regions/europe/item/name", "iname"))
	sim := teacher.New(doc, truth)
	opts := core.DefaultOptions()
	opts.R1Filter = s
	eng := core.NewEngine(doc, sim, opts)
	tree, stats, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: mustDTD(`<!ELEMENT out (iname*)> <!ELEMENT iname (#PCDATA)>`),
		Drops: []core.Drop{{
			Path: "out/iname", Var: "x",
			Select: teacher.SelectByText("name", "H. Potter"),
		}},
	})
	if err != nil {
		t.Fatalf("Learn with Relax NG filter: %v", err)
	}
	if stats.Totals().ReducedR1 == 0 {
		t.Fatal("the schema filter reduced nothing")
	}
	got := tree.String()
	if got == "" {
		t.Fatal("empty learned query")
	}
}

// TestStepPathAgrees runs the fuzz target's step/closure property on
// the running example's schema.
func TestStepPathAgrees(t *testing.T) {
	checkStepPath(t, MustParse(auctionSchema))
}
