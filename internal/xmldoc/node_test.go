package xmldoc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `<site>
  <regions>
    <europe>
      <item id="i7"><name>H. Potter</name>
        <incategory category="c2"/>
        <description>Best Seller</description>
      </item>
    </europe>
    <asia>
      <item id="i10"><name>XML book</name>
        <incategory category="c2"/>
        <description>how-to book</description>
      </item>
    </asia>
  </regions>
  <categories>
    <category id="c1"><name>computer</name></category>
    <category id="c2"><name>book</name></category>
  </categories>
</site>`

func parseSample(t *testing.T) *Document {
	t.Helper()
	d, err := ParseString(sample)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParseRoot(t *testing.T) {
	d := parseSample(t)
	if d.Root() == nil || d.Root().Name != "site" {
		t.Fatalf("root = %v, want site", d.Root())
	}
}

func TestPath(t *testing.T) {
	d := parseSample(t)
	items := d.NodesWithLabel("item")
	if len(items) != 2 {
		t.Fatalf("items = %d, want 2", len(items))
	}
	got := items[0].Path()
	want := []string{"site", "regions", "europe", "item"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	if items[0].PathString() != "/site/regions/europe/item" {
		t.Fatalf("PathString = %q", items[0].PathString())
	}
}

func TestAttrPath(t *testing.T) {
	d := parseSample(t)
	item := d.NodesWithLabel("item")[0]
	id := item.AttrNode("id")
	if id == nil {
		t.Fatal("no id attribute")
	}
	if id.Label() != "@id" {
		t.Fatalf("label = %q, want @id", id.Label())
	}
	want := []string{"site", "regions", "europe", "item", "@id"}
	if !reflect.DeepEqual(id.Path(), want) {
		t.Fatalf("path = %v, want %v", id.Path(), want)
	}
	if v, ok := item.Attr("id"); !ok || v != "i7" {
		t.Fatalf("Attr(id) = %q, %v", v, ok)
	}
	if _, ok := item.Attr("missing"); ok {
		t.Fatal("Attr(missing) should not exist")
	}
}

func TestText(t *testing.T) {
	d := parseSample(t)
	name := d.NodesWithLabel("name")[0]
	if name.Text() != "H. Potter" {
		t.Fatalf("Text = %q", name.Text())
	}
	item := d.NodesWithLabel("item")[0]
	if !strings.Contains(item.Text(), "H. Potter") || !strings.Contains(item.Text(), "Best Seller") {
		t.Fatalf("element text aggregation = %q", item.Text())
	}
}

func TestNodeIDsDenseAndStable(t *testing.T) {
	d := parseSample(t)
	for i := 0; i < d.NumNodes(); i++ {
		n := d.NodeByID(i)
		if n == nil || n.ID != i {
			t.Fatalf("NodeByID(%d) = %v", i, n)
		}
	}
	if d.NodeByID(-1) != nil || d.NodeByID(d.NumNodes()) != nil {
		t.Fatal("out-of-range lookup should be nil")
	}
}

func TestAlphabet(t *testing.T) {
	d := parseSample(t)
	a := d.Alphabet()
	want := []string{"@category", "@id", "asia", "categories", "category",
		"description", "europe", "incategory", "item", "name", "regions", "site"}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("alphabet = %v, want %v", a, want)
	}
}

func TestChildHelpers(t *testing.T) {
	d := parseSample(t)
	regions := d.Root().FirstChildNamed("regions")
	if regions == nil {
		t.Fatal("no regions")
	}
	if len(regions.ChildElements()) != 2 {
		t.Fatalf("regions children = %d, want 2", len(regions.ChildElements()))
	}
	cats := d.Root().FirstChildNamed("categories")
	if len(cats.ChildElementsNamed("category")) != 2 {
		t.Fatal("want 2 category children")
	}
	if cats.FirstChildNamed("nope") != nil {
		t.Fatal("FirstChildNamed(nope) should be nil")
	}
}

func TestIndex(t *testing.T) {
	d := parseSample(t)
	cats := d.Root().FirstChildNamed("categories").ChildElementsNamed("category")
	if cats[0].Index() != 1 || cats[1].Index() != 2 {
		t.Fatalf("indexes = %d, %d", cats[0].Index(), cats[1].Index())
	}
}

func TestIsAncestorOf(t *testing.T) {
	d := parseSample(t)
	name := d.NodesWithLabel("name")[0]
	if !d.Root().IsAncestorOf(name) {
		t.Fatal("root should be ancestor of name")
	}
	if name.IsAncestorOf(d.Root()) {
		t.Fatal("name is not ancestor of root")
	}
	if name.IsAncestorOf(name) {
		t.Fatal("a node is not its own proper ancestor")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	d := parseSample(t)
	s := XMLString(d.Root())
	d2, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if XMLString(d2.Root()) != s {
		t.Fatal("serialize/parse/serialize not a fixed point")
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument()
	el := d.CreateElement(d.DocNode(), "a")
	d.CreateAttr(el, "k", `x"<&`)
	d.CreateText(el, "1 < 2 & 3 > 2")
	s := XMLString(el)
	d2, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse escaped: %v (%s)", err, s)
	}
	if v, _ := d2.Root().Attr("k"); v != `x"<&` {
		t.Fatalf("attr roundtrip = %q", v)
	}
	if d2.Root().Text() != "1 < 2 & 3 > 2" {
		t.Fatalf("text roundtrip = %q", d2.Root().Text())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a>", "<a></b>", "just text"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestIndentedOutput(t *testing.T) {
	d := parseSample(t)
	out := IndentedXMLString(d.Root())
	if !strings.Contains(out, "<name>H. Potter</name>") {
		t.Fatalf("indented output missing text-only inline element:\n%s", out)
	}
	if _, err := ParseString(out); err != nil {
		t.Fatalf("indented output must reparse: %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	d := NewDocument()
	el := d.CreateElement(d.DocNode(), "a")
	txt := d.CreateText(el, "x")
	mustPanic(t, func() { d.CreateElement(txt, "b") })
	mustPanic(t, func() { d.CreateAttr(txt, "k", "v") })
	mustPanic(t, func() { d.CreateText(txt, "y") })
	other := NewDocument()
	mustPanic(t, func() { other.CreateElement(el, "b") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestPathDepthProperty checks Path length == Depth on every node of a
// randomly shaped tree.
func TestPathDepthProperty(t *testing.T) {
	f := func(shape []uint8) bool {
		d := NewDocument()
		cur := d.CreateElement(d.DocNode(), "r")
		for _, b := range shape {
			switch b % 3 {
			case 0:
				cur = d.CreateElement(cur, "e"+string(rune('a'+b%26)))
			case 1:
				d.CreateAttr(cur, "k"+string(rune('a'+b%26)), "v")
			case 2:
				if cur.Parent.Kind == ElementNode {
					cur = cur.Parent
				}
			}
		}
		ok := true
		d.Walk(func(n *Node) bool {
			if len(n.Path()) != n.Depth() {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkOrderProperty: Walk visits nodes in increasing ID order for
// builder-constructed top-down documents (IDs are assigned in creation
// order, which is document order when building top-down).
func TestWalkOrderProperty(t *testing.T) {
	d := parseSample(t)
	last := -1
	d.Walk(func(n *Node) bool {
		if n.ID <= last {
			t.Fatalf("walk out of order: %d after %d", n.ID, last)
		}
		last = n.ID
		return true
	})
}

func TestDescendantsEarlyStop(t *testing.T) {
	d := parseSample(t)
	count := 0
	d.Root().Descendants(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

// TestFirstWithLabelMatchesNodesWithLabel checks the early-stopping
// selector against a scan of NodesWithLabel: for every label (and one
// absent label) and every position, selecting the i-th labeled node
// yields the same node, and a match on attribute values too.
func TestFirstWithLabelMatchesNodesWithLabel(t *testing.T) {
	d := MustParse(sample)
	for _, label := range append(d.Alphabet(), "absent", "#text") {
		all := d.NodesWithLabel(label)
		for i := 0; i <= len(all); i++ {
			seen := 0
			got := d.FirstWithLabel(label, func(n *Node) bool {
				if n.Label() != label {
					t.Fatalf("%s: match saw %s", label, n.Label())
				}
				seen++
				return seen > i
			})
			var want *Node
			if i < len(all) {
				want = all[i]
			}
			if got != want {
				t.Fatalf("%s[%d]: got %v, want %v", label, i, got, want)
			}
		}
	}
	if got := d.FirstWithLabel("category", func(n *Node) bool { v, _ := n.Attr("id"); return v == "c2" }); got != d.NodesWithLabel("category")[1] {
		t.Fatalf("category c2: got %v", got)
	}
}
