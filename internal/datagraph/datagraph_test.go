package datagraph

import (
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

const instance = `<site>
  <regions>
    <europe>
      <item id="i7"><name>H. Potter</name>
        <incategory category="c2"/>
        <description>Best Seller</description>
      </item>
      <item id="i6"><name>Encyclopedia</name>
        <incategory category="c2"/>
      </item>
    </europe>
  </regions>
  <categories>
    <category id="c1"><name>computer</name></category>
    <category id="c2"><name>book</name></category>
  </categories>
  <closed_auctions>
    <closed_auction><price>50</price><itemref item="i7"/></closed_auction>
    <closed_auction><price>700</price><itemref item="i6"/></closed_auction>
  </closed_auctions>
</site>`

func graph(t *testing.T) (*Graph, *xmldoc.Document) {
	t.Helper()
	doc := xmldoc.MustParse(instance)
	return New(NewBuckets(xq.NewIndex(doc)), DefaultConfig()), doc
}

func itemByID(t *testing.T, doc *xmldoc.Document, id string) *xmldoc.Node {
	t.Helper()
	for _, n := range doc.NodesWithLabel("item") {
		if v, _ := n.Attr("id"); v == id {
			return n
		}
	}
	t.Fatalf("no item %s", id)
	return nil
}

func categoryByID(t *testing.T, doc *xmldoc.Document, id string) *xmldoc.Node {
	t.Helper()
	for _, n := range doc.NodesWithLabel("category") {
		if v, _ := n.Attr("id"); v == id {
			return n
		}
	}
	t.Fatalf("no category %s", id)
	return nil
}

func keys(preds []*xq.Pred) []string {
	out := make([]string, len(preds))
	for i, p := range preds {
		out[i] = p.Key()
	}
	return out
}

func TestDirectJoinsFindsIncategory(t *testing.T) {
	// Figure 10: the association between the item and the book category
	// via incategory/@category = @id.
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	book := categoryByID(t, doc, "c2")
	preds := g.DirectJoins("i", item, "c", book)
	want := "data($i/incategory/@category) = data($c/@id)"
	found := false
	for _, k := range keys(preds) {
		if k == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %q in %v", want, keys(preds))
	}
	// Every enumerated predicate must actually hold.
	ev := xq.NewEvaluator(doc)
	for _, p := range preds {
		if !ev.PredHolds(p, xq.Env{"i": item, "c": book}) {
			t.Errorf("enumerated predicate does not hold: %s", p.Key())
		}
	}
}

func TestDirectJoinsNoFalseLink(t *testing.T) {
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	computer := categoryByID(t, doc, "c1")
	for _, p := range g.DirectJoins("i", item, "c", computer) {
		t.Errorf("unexpected join with the computer category: %s", p.Key())
	}
}

func TestRel1SameValue(t *testing.T) {
	doc := xmldoc.MustParse(`<r><a>42</a><b>42</b></r>`)
	g := New(NewBuckets(xq.NewIndex(doc)), DefaultConfig())
	a := doc.NodesWithLabel("a")[0]
	b := doc.NodesWithLabel("b")[0]
	preds := g.DirectJoins("x", a, "y", b)
	if len(preds) != 1 || preds[0].Key() != "data($x) = data($y)" {
		t.Fatalf("Rel1 = %v", keys(preds))
	}
}

func TestRelayJoins(t *testing.T) {
	// Two entities related only through a third (order lines linking
	// products and customers).
	doc := xmldoc.MustParse(`<db>
	  <product pid="p1"/>
	  <product pid="p2"/>
	  <customer cid="c1"/>
	  <orders>
	    <order><p>p1</p><c>c1</c></order>
	    <order><p>p2</p><c>c9</c></order>
	  </orders>
	</db>`)
	g := New(NewBuckets(xq.NewIndex(doc)), DefaultConfig())
	var p1 *xmldoc.Node
	for _, n := range doc.NodesWithLabel("product") {
		if v, _ := n.Attr("pid"); v == "p1" {
			p1 = n
		}
	}
	c1 := doc.NodesWithLabel("customer")[0]
	preds := g.RelayJoins("x", p1, "y", c1)
	if len(preds) == 0 {
		t.Fatal("expected a relay join through order")
	}
	ev := xq.NewEvaluator(doc)
	foundOrder := false
	for _, p := range preds {
		if !p.HasRelay() {
			t.Errorf("relay join without relay: %s", p.Key())
		}
		if strings.Contains(p.Key(), "orders/order") {
			foundOrder = true
		}
		if !ev.PredHolds(p, xq.Env{"x": p1, "y": c1}) {
			t.Errorf("relay predicate does not hold: %s", p.Key())
		}
	}
	if !foundOrder {
		t.Fatalf("no order relay in %v", keys(preds))
	}
}

func TestCondAggregatesContexts(t *testing.T) {
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	book := categoryByID(t, doc, "c2")
	preds := g.Cond(map[string]*xmldoc.Node{"c": book}, "i", item)
	if len(preds) == 0 {
		t.Fatal("cond must be non-empty for the paper's example")
	}
	ev := xq.NewEvaluator(doc)
	for _, p := range preds {
		if !ev.PredHolds(p, xq.Env{"i": item, "c": book}) {
			t.Errorf("cond member does not hold: %s", p.Key())
		}
	}
}

func TestCondEmptyContext(t *testing.T) {
	g, doc := graph(t)
	if preds := g.Cond(nil, "i", itemByID(t, doc, "i7")); len(preds) != 0 {
		t.Fatalf("empty context must give empty cond, got %v", keys(preds))
	}
}

func TestLinkConditionDirect(t *testing.T) {
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	name := item.FirstChildNamed("name")
	link, ok := g.LinkCondition(map[string]*xmldoc.Node{"i": item}, name)
	if !ok || link.HasRelay {
		t.Fatalf("direct link expected: %+v ok=%v", link, ok)
	}
	if link.CondOperand.Var != "i" || link.CondOperand.Path.String() != "name" {
		t.Fatalf("operand = %s", link.CondOperand.String())
	}
}

func TestLinkConditionRelay(t *testing.T) {
	// The running example: the user drops H. Potter's price (under
	// closed_auction) into the Condition Box with "<300"; XLearner must
	// derive the itemref/@item = $i/@id link (Figure 6's boxed part).
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	var price *xmldoc.Node
	for _, p := range doc.NodesWithLabel("price") {
		if p.Text() == "50" {
			price = p
		}
	}
	link, ok := g.LinkCondition(map[string]*xmldoc.Node{"i": item}, price)
	if !ok || !link.HasRelay {
		t.Fatalf("relay link expected: %+v ok=%v", link, ok)
	}
	if link.RelayPath.String() != "site/closed_auctions/closed_auction" {
		t.Fatalf("relay path = %s", link.RelayPath.String())
	}
	pred := BuildConditionPred(link, xq.OpLt, "300", false)
	ev := xq.NewEvaluator(doc)
	if !ev.PredHolds(pred, xq.Env{"i": item}) {
		t.Fatalf("derived condition must hold for i7: %s", pred.Key())
	}
	// For the 700-dollar Encyclopedia the same predicate fails.
	i6 := itemByID(t, doc, "i6")
	if ev.PredHolds(pred, xq.Env{"i": i6}) {
		t.Fatalf("condition must exclude i6: %s", pred.Key())
	}
}

func TestBuildConditionPredNCBAndEmpty(t *testing.T) {
	g, doc := graph(t)
	item := itemByID(t, doc, "i7")
	name := item.FirstChildNamed("name")
	link, _ := g.LinkCondition(map[string]*xmldoc.Node{"i": item}, name)
	ncb := BuildConditionPred(link, xq.OpEq, "H. Potter", true)
	ev := xq.NewEvaluator(doc)
	if ev.PredHolds(ncb, xq.Env{"i": item}) {
		t.Fatal("negated condition must fail for the matching item")
	}
	empty := BuildConditionPred(link, xq.OpEmpty, "", false)
	if ev.PredHolds(empty, xq.Env{"i": item}) {
		t.Fatal("empty($i/name) is false: the item has a name")
	}
}

func TestLinkConditionNotFound(t *testing.T) {
	g, doc := graph(t)
	// A category is unrelated to an unconnected text value.
	lone := xmldoc.MustParse(`<x><y>unrelated-value-xyz</y></x>`)
	_ = lone
	cat := categoryByID(t, doc, "c1")
	name := itemByID(t, doc, "i7").FirstChildNamed("name")
	if _, ok := g.LinkCondition(map[string]*xmldoc.Node{"c": cat}, name); ok {
		t.Fatal("no link should exist between c1 and H. Potter's name")
	}
}

func TestMaxBucketSkipsNoise(t *testing.T) {
	// A value shared by many nodes must not produce joins.
	var b strings.Builder
	b.WriteString("<r><l id='k'/>")
	for i := 0; i < 100; i++ {
		b.WriteString("<n v='k'/>")
	}
	b.WriteString("<m ref='k'/></r>")
	doc := xmldoc.MustParse(b.String())
	cfg := DefaultConfig()
	cfg.MaxBucket = 10
	g := New(NewBuckets(xq.NewIndex(doc)), cfg)
	l := doc.NodesWithLabel("l")[0]
	m := doc.NodesWithLabel("m")[0]
	if preds := g.DirectJoins("x", l, "y", m); len(preds) != 0 {
		t.Fatalf("noisy bucket should be skipped: %v", keys(preds))
	}
	if g.EqualValued("k") != nil {
		t.Fatal("EqualValued must return nil over MaxBucket")
	}
}

func TestVEdgeCount(t *testing.T) {
	doc := xmldoc.MustParse(`<r><a>1</a><b>1</b><c>1</c><d>2</d></r>`)
	g := New(NewBuckets(xq.NewIndex(doc)), DefaultConfig())
	if got := g.VEdgeCount(); got != 3 { // C(3,2) = 3 for value "1"
		t.Fatalf("VEdgeCount = %d, want 3", got)
	}
}

func TestMaxPathDepthBound(t *testing.T) {
	doc := xmldoc.MustParse(`<r><a><b><c><d><e>deep</e></d></c></b></a><x>deep</x></r>`)
	cfg := DefaultConfig()
	cfg.MaxPathDepth = 2
	g := New(NewBuckets(xq.NewIndex(doc)), cfg)
	a := doc.NodesWithLabel("a")[0]
	x := doc.NodesWithLabel("x")[0]
	if preds := g.DirectJoins("p", a, "q", x); len(preds) != 0 {
		t.Fatalf("join path beyond depth bound must be skipped: %v", keys(preds))
	}
	cfg.MaxPathDepth = 5
	g = New(NewBuckets(xq.NewIndex(doc)), cfg)
	if preds := g.DirectJoins("p", a, "q", x); len(preds) == 0 {
		t.Fatal("deeper bound should find the join")
	}
}

func TestRootPath(t *testing.T) {
	_, doc := graph(t)
	price := doc.NodesWithLabel("price")[0]
	if RootPath(price).String() != "site/closed_auctions/closed_auction/price" {
		t.Fatalf("RootPath = %s", RootPath(price).String())
	}
}
