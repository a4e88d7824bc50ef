package datagraph

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// refNodeValue is the pointer-walk definition of a node's joinable
// value that NewBuckets and Buckets.value replace: attribute values and
// the assembled text of text-only elements, trimmed.
func refNodeValue(n *xmldoc.Node) (string, bool) {
	switch n.Kind {
	case xmldoc.AttributeNode:
		return strings.TrimSpace(n.Value), true
	case xmldoc.ElementNode:
		hasText := false
		for _, c := range n.Children {
			switch c.Kind {
			case xmldoc.TextNode:
				hasText = true
			case xmldoc.ElementNode:
				return "", false
			}
		}
		if hasText {
			return strings.TrimSpace(n.Text()), true
		}
	}
	return "", false
}

// refBuckets is the reference bucket builder: one document walk filing
// every value-carrying node under its value, in walk order.
func refBuckets(doc *xmldoc.Document) map[string][]*xmldoc.Node {
	out := map[string][]*xmldoc.Node{}
	doc.Walk(func(n *xmldoc.Node) bool {
		if v, ok := refNodeValue(n); ok {
			out[v] = append(out[v], n)
		}
		return true
	})
	return out
}

// refValueLeaves is valueLeaves over refNodeValue.
func refValueLeaves(n *xmldoc.Node, maxDepth int) []valueLeaf {
	var out []valueLeaf
	var walk func(cur *xmldoc.Node, path xq.SimplePath, depth int)
	walk = func(cur *xmldoc.Node, path xq.SimplePath, depth int) {
		if v, ok := refNodeValue(cur); ok && v != "" {
			out = append(out, valueLeaf{node: cur, path: append(xq.SimplePath(nil), path...), value: v})
		}
		if depth >= maxDepth || cur.Kind != xmldoc.ElementNode {
			return
		}
		for _, a := range cur.Attrs {
			walk(a, append(path, xq.Step{Name: "@" + a.Name}), depth+1)
		}
		for _, c := range cur.Children {
			if c.Kind == xmldoc.ElementNode {
				walk(c, append(path, xq.Step{Name: c.Name}), depth+1)
			}
		}
	}
	walk(n, nil, 0)
	return out
}

// CheckBucketsMatchReference asserts that the column-built buckets of
// doc equal the reference walk's — same values, same nodes in the same
// order, same attribute backing — and that VEdgeCount, every node's
// value and every element anchor's valueLeaves agree with it.
func CheckBucketsMatchReference(t testing.TB, doc *xmldoc.Document) {
	t.Helper()
	b := NewBuckets(xq.NewIndex(doc))
	want := refBuckets(doc)
	if len(b.ids) != len(want) {
		t.Fatalf("%d buckets, reference has %d", len(b.ids), len(want))
	}
	refEdges := 0
	for v, nodes := range want {
		got, attr := b.bucket(v)
		if !slices.Equal(got, nodes) {
			t.Fatalf("bucket %q: got %d nodes %v, reference %d nodes %v", v, len(got), ids(got), len(nodes), ids(nodes))
		}
		wantAttr := slices.ContainsFunc(nodes, func(n *xmldoc.Node) bool { return n.Kind == xmldoc.AttributeNode })
		if attr != wantAttr {
			t.Fatalf("bucket %q: attribute-backed %v, reference %v", v, attr, wantAttr)
		}
		refEdges += len(nodes) * (len(nodes) - 1) / 2
	}
	g := New(b, DefaultConfig())
	if got := g.VEdgeCount(); got != refEdges {
		t.Fatalf("VEdgeCount = %d, reference %d", got, refEdges)
	}
	for id := 0; id < doc.NumNodes(); id++ {
		n := doc.NodeByID(id)
		gv, gok := b.value(n)
		wv, wok := refNodeValue(n)
		if gv != wv || gok != wok {
			t.Fatalf("node %d (%s): value %q,%v, reference %q,%v", id, n.Label(), gv, gok, wv, wok)
		}
		if n.Kind != xmldoc.ElementNode {
			continue
		}
		got, ref := g.valueLeaves(n), refValueLeaves(n, g.Cfg.MaxPathDepth)
		if !slices.EqualFunc(got, ref, func(a, b valueLeaf) bool {
			return a.node == b.node && a.value == b.value && a.path.Equal(b.path)
		}) {
			t.Fatalf("valueLeaves(node %d %s): got %d leaves, reference %d", id, n.Label(), len(got), len(ref))
		}
	}
}

func ids(ns []*xmldoc.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// edgeDoc builds the value shapes a parse never produces or easily
// hides: an element whose only child is an empty text node,
// whitespace-only text, mixed content, attributes with surrounding
// spaces and empty values, and an attribute added after its element's
// children (so node IDs leave document order).
func edgeDoc() *xmldoc.Document {
	d := xmldoc.NewDocument()
	r := d.CreateElement(d.DocNode(), "r")
	d.CreateText(d.CreateElement(r, "empty"), "")
	d.CreateText(d.CreateElement(r, "blank"), "  \n\t ")
	d.CreateElement(r, "bare")
	mixed := d.CreateElement(r, "mixed")
	d.CreateText(mixed, " k1 ")
	d.CreateText(d.CreateElement(mixed, "b"), "k1")
	d.CreateText(mixed, "tail")
	two := d.CreateElement(r, "two")
	d.CreateText(two, " k")
	d.CreateText(two, "1 ")
	e := d.CreateElement(r, "e")
	d.CreateAttr(e, "pad", "  k1  ")
	d.CreateAttr(e, "none", "")
	d.CreateText(d.CreateElement(e, "c"), "k1")
	d.CreateAttr(e, "late", " ")
	d.CreateAttr(r, "root", "k1")
	return d
}

func TestBucketsMatchReferenceEdgeDoc(t *testing.T) {
	doc := edgeDoc()
	CheckBucketsMatchReference(t, doc)
	g := New(NewBuckets(xq.NewIndex(doc)), DefaultConfig())
	// "" collects the empty text, the blank text and the two empty
	// attributes; "k1" the padded attribute, <b>, <c>, <two> and @root.
	if b, attr := g.vals.bucket(""); len(b) != 4 || !attr {
		t.Fatalf(`"" bucket = %v (attribute-backed %v), want 4 nodes with attributes`, ids(b), attr)
	}
	if b, _ := g.vals.bucket("k1"); len(b) != 5 {
		t.Fatalf(`"k1" bucket = %v, want 5 nodes`, ids(b))
	}
}

// buildFuzzDoc turns bytes into a document, two bytes an operation:
// open an element, close one, add an attribute or a text node (values
// drawn from a set rich in spaces, empties and repeats). Attributes may
// follow children, so IDs and document order disagree.
func buildFuzzDoc(data []byte) *xmldoc.Document {
	names := []string{"a", "b", "c"}
	vals := []string{"", " ", "k1", " k1 ", "k", "1 ", "x y", "\t"}
	d := xmldoc.NewDocument()
	stack := []*xmldoc.Node{d.CreateElement(d.DocNode(), "r")}
	for i := 0; i+1 < len(data) && d.NumNodes() < 512; i += 2 {
		op, arg := data[i]%4, int(data[i+1])
		top := stack[len(stack)-1]
		switch op {
		case 0:
			stack = append(stack, d.CreateElement(top, names[arg%len(names)]))
		case 1:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 2:
			d.CreateAttr(top, names[arg%len(names)], vals[arg/len(names)%len(vals)])
		case 3:
			d.CreateText(top, vals[arg%len(vals)])
		}
	}
	return d
}

// FuzzGraphBuckets checks the column-built buckets against the
// reference walk on byte-built documents.
func FuzzGraphBuckets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckBucketsMatchReference(t, buildFuzzDoc(data))
	})
}
