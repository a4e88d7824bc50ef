// Package xmldoc implements the XML data model used throughout the
// XLearner reproduction: an in-memory node tree with stable node
// identities, root-to-node label paths, and helpers for building,
// parsing, and serializing documents.
//
// The model follows the paper's usage: a generic "XML node" is an
// element, an attribute, or a text value. Elements and attributes are
// the droppable/learnable nodes; text content is attached to elements
// as text nodes and is reachable through Node.Text.
package xmldoc

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the node kinds of the data model.
type Kind int

const (
	// DocumentNode is the synthetic root above the document element.
	DocumentNode Kind = iota
	// ElementNode is an XML element.
	ElementNode
	// AttributeNode is an attribute of an element.
	AttributeNode
	// TextNode holds character data of its parent element.
	TextNode
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a single node of a document tree. Nodes are created through a
// Document (or Builder) and carry a document-unique ID, which is what
// the learning machinery uses for identity ("v1 is v2" in the paper).
type Node struct {
	// ID is unique within the owning document and dense from 0.
	ID int
	// Kind is the node kind.
	Kind Kind
	// Name is the element tag or attribute name (no "@" prefix).
	Name string
	// Value is the character data for text and attribute nodes.
	Value string
	// Parent is nil for the document node only.
	Parent *Node
	// Attrs are the attribute nodes, in declaration order.
	Attrs []*Node
	// Children are element and text children, in document order.
	Children []*Node

	doc *Document
	// label is the precomputed Label() string (interned per document),
	// sym its dense per-document symbol ID (NoSym for text/document
	// nodes, which are outside the path alphabet).
	label string
	sym   int32
}

// NoSym is the LabelSym of nodes outside the path alphabet (text and
// document nodes).
const NoSym int32 = -1

// textLabel is the shared Label of every text node.
const textLabel = "#text"

// Document owns a tree of nodes and provides ID-based lookup.
type Document struct {
	root  *Node // the DocumentNode
	nodes []*Node
	// syms/labels intern the element/attribute label set: syms maps a
	// label to its dense symbol ID, labels is the inverse in first-seen
	// order. attrSyms shortcuts the "@"+name concatenation for
	// already-interned attribute names.
	syms     map[string]int32
	labels   []string
	attrSyms map[string]int32
}

// NewDocument returns an empty document containing only the document
// node. Use CreateElement/CreateAttr/CreateText (or Builder) to fill it.
func NewDocument() *Document {
	d := &Document{syms: map[string]int32{}, attrSyms: map[string]int32{}}
	d.root = d.newNode(DocumentNode, "", "")
	return d
}

func (d *Document) newNode(k Kind, name, value string) *Node {
	n := &Node{ID: len(d.nodes), Kind: k, Name: name, Value: value, doc: d, sym: NoSym}
	switch k {
	case ElementNode:
		n.label, n.sym = d.intern(name)
	case AttributeNode:
		if s, ok := d.attrSyms[name]; ok {
			n.label, n.sym = d.labels[s], s
		} else {
			n.label, n.sym = d.intern("@" + name)
			d.attrSyms[name] = n.sym
		}
	case TextNode:
		n.label = textLabel
	}
	d.nodes = append(d.nodes, n)
	return n
}

// intern returns the canonical string and symbol ID for a label,
// assigning the next dense ID on first sight.
func (d *Document) intern(label string) (string, int32) {
	if s, ok := d.syms[label]; ok {
		return d.labels[s], s
	}
	s := int32(len(d.labels))
	d.labels = append(d.labels, label)
	d.syms[label] = s
	return label, s
}

// LabelSym returns the node's per-document symbol ID (dense from 0 in
// first-seen document order), or NoSym for text and document nodes.
// Two element/attribute nodes of one document have equal labels iff
// they have equal symbols.
func (n *Node) LabelSym() int32 { return n.sym }

// SymOf returns the symbol ID interned for the label, if any
// element/attribute node of the document carries it.
func (d *Document) SymOf(label string) (int32, bool) {
	s, ok := d.syms[label]
	return s, ok
}

// NumSyms reports how many distinct element/attribute labels the
// document has interned; valid symbol IDs are [0, NumSyms).
func (d *Document) NumSyms() int { return len(d.labels) }

// LabelOfSym returns the label string for a symbol ID.
func (d *Document) LabelOfSym(s int32) string { return d.labels[s] }

// DocNode returns the synthetic document node.
func (d *Document) DocNode() *Node { return d.root }

// Root returns the document element, or nil if the document is empty.
func (d *Document) Root() *Node {
	for _, c := range d.root.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// NodeByID returns the node with the given ID, or nil if out of range.
func (d *Document) NodeByID(id int) *Node {
	if id < 0 || id >= len(d.nodes) {
		return nil
	}
	return d.nodes[id]
}

// NumNodes reports how many nodes the document contains (all kinds,
// including the document node).
func (d *Document) NumNodes() int { return len(d.nodes) }

// invariant panics with the formatted message. The Document mutation
// API treats structurally impossible requests — children under text
// nodes, cross-document parents, importing a document node — as
// programmer errors rather than recoverable input conditions: every
// call site passes nodes the caller just created or walked, so a bad
// kind can only come from a code bug. This is one of the repository's
// few allowed invariant panics.
func invariant(format string, args ...any) {
	panic("xmldoc: " + fmt.Sprintf(format, args...))
}

// CreateElement appends a new element named name under parent and
// returns it. parent must belong to this document and be the document
// node or an element.
func (d *Document) CreateElement(parent *Node, name string) *Node {
	d.checkParent(parent)
	if parent.Kind != DocumentNode && parent.Kind != ElementNode {
		invariant("cannot add element under %s node", parent.Kind)
	}
	n := d.newNode(ElementNode, name, "")
	n.Parent = parent
	parent.Children = append(parent.Children, n)
	return n
}

// CreateAttr attaches a new attribute name="value" to element el and
// returns the attribute node.
func (d *Document) CreateAttr(el *Node, name, value string) *Node {
	d.checkParent(el)
	if el.Kind != ElementNode {
		invariant("cannot add attribute to %s node", el.Kind)
	}
	n := d.newNode(AttributeNode, name, value)
	n.Parent = el
	el.Attrs = append(el.Attrs, n)
	return n
}

// CreateText appends a text node with the given character data under
// element el and returns it.
func (d *Document) CreateText(el *Node, value string) *Node {
	d.checkParent(el)
	if el.Kind != ElementNode {
		invariant("cannot add text to %s node", el.Kind)
	}
	n := d.newNode(TextNode, "", value)
	n.Parent = el
	el.Children = append(el.Children, n)
	return n
}

func (d *Document) checkParent(p *Node) {
	if p == nil || p.doc != d {
		invariant("parent node does not belong to this document")
	}
}

// Document returns the owning document of the node.
func (n *Node) Document() *Document { return n.doc }

// Label is the path-alphabet symbol for the node: the tag for elements,
// "@name" for attributes, and "#text" for text nodes. The string is
// precomputed at node creation (and interned per document for
// element/attribute labels), so calling Label never allocates.
func (n *Node) Label() string { return n.label }

// Path returns the sequence of labels from the document element down to
// the node itself. The document node has an empty path. This is the
// "sequence of tags" the paper feeds to the DFA learner (path(e)).
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil && cur.Kind != DocumentNode; cur = cur.Parent {
		rev = append(rev, cur.Label())
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// PathString returns Path joined by "/" with a leading "/".
func (n *Node) PathString() string {
	p := n.Path()
	if len(p) == 0 {
		return "/"
	}
	return "/" + strings.Join(p, "/")
}

// Depth is the number of labels in Path.
func (n *Node) Depth() int {
	d := 0
	for cur := n; cur != nil && cur.Kind != DocumentNode; cur = cur.Parent {
		d++
	}
	return d
}

// Text returns the concatenated character data of the node: the value
// itself for text/attribute nodes, and the document-order concatenation
// of all descendant text for elements.
func (n *Node) Text() string {
	switch n.Kind {
	case TextNode, AttributeNode:
		return n.Value
	case ElementNode, DocumentNode:
		var b strings.Builder
		n.appendText(&b)
		return b.String()
	default:
		return ""
	}
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.Children {
		if c.Kind == TextNode {
			b.WriteString(c.Value)
		} else {
			c.appendText(b)
		}
	}
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrNode returns the attribute node with the given name, or nil.
func (n *Node) AttrNode(name string) *Node {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ChildElements returns the element children in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ChildElementsNamed returns the element children with the given tag.
func (n *Node) ChildElementsNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildNamed returns the first element child with the given tag,
// or nil.
func (n *Node) FirstChildNamed(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Index returns the 1-based position of the node among its parent's
// same-kind children (elements counted among element children, text
// among all children). Attributes return 0.
func (n *Node) Index() int {
	if n.Parent == nil || n.Kind == AttributeNode {
		return 0
	}
	i := 0
	for _, c := range n.Parent.Children {
		if c.Kind == n.Kind {
			i++
			if c == n {
				return i
			}
		}
	}
	return 0
}

// Descendants visits the node and all descendants (elements, then their
// attributes, then children) in document order, calling f for each; if
// f returns false the walk stops.
func (n *Node) Descendants(f func(*Node) bool) {
	n.walk(f)
}

func (n *Node) walk(f func(*Node) bool) bool {
	if !f(n) {
		return false
	}
	for _, a := range n.Attrs {
		if !f(a) {
			return false
		}
	}
	for _, c := range n.Children {
		if !c.walk(f) {
			return false
		}
	}
	return true
}

// Walk visits every node of the document in document order.
func (d *Document) Walk(f func(*Node) bool) {
	d.root.walk(f)
}

// Elements returns all element nodes in document order.
func (d *Document) Elements() []*Node {
	var out []*Node
	d.Walk(func(n *Node) bool {
		if n.Kind == ElementNode {
			out = append(out, n)
		}
		return true
	})
	return out
}

// NodesWithLabel returns all element/attribute nodes whose Label equals
// label, in document order.
func (d *Document) NodesWithLabel(label string) []*Node {
	var out []*Node
	d.Walk(func(n *Node) bool {
		if (n.Kind == ElementNode || n.Kind == AttributeNode) && n.Label() == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

// FirstWithLabel returns the first element/attribute node in document
// order whose Label equals label and that satisfies match, or nil. The
// walk stops at the match and is skipped altogether when no node of the
// document carries the label; match sees only nodes with the label.
func (d *Document) FirstWithLabel(label string, match func(*Node) bool) *Node {
	sym, ok := d.SymOf(label)
	if !ok {
		return nil
	}
	var hit *Node
	d.Walk(func(n *Node) bool {
		if n.sym == sym && match(n) {
			hit = n
		}
		return hit == nil
	})
	return hit
}

// Alphabet returns the sorted set of labels (element tags and "@attr"
// names) occurring in the document. This is the DFA alphabet for
// instance-driven learning. The label set is maintained incrementally
// by the interner, so this is a sorted copy rather than a tree walk.
func (d *Document) Alphabet() []string {
	out := append([]string(nil), d.labels...)
	sort.Strings(out)
	return out
}

// ImportSubtree deep-copies the subtree rooted at src (typically from
// another document) under parent, returning the copied root. Attribute
// sources are imported as text content of the parent (an attribute
// value returned into element content, XQuery-style). Text sources are
// imported as text nodes.
func (d *Document) ImportSubtree(parent *Node, src *Node) *Node {
	switch src.Kind {
	case AttributeNode:
		return d.CreateText(parent, src.Value)
	case TextNode:
		return d.CreateText(parent, src.Value)
	case ElementNode:
		el := d.CreateElement(parent, src.Name)
		for _, a := range src.Attrs {
			d.CreateAttr(el, a.Name, a.Value)
		}
		for _, c := range src.Children {
			d.ImportSubtree(el, c)
		}
		return el
	default:
		invariant("cannot import a document node")
		return nil
	}
}

// IsAncestorOf reports whether n is a proper ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for cur := m.Parent; cur != nil; cur = cur.Parent {
		if cur == n {
			return true
		}
	}
	return false
}
