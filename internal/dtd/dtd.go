// Package dtd implements the DTD subset XLearner consumes: ELEMENT and
// ATTLIST declarations with the usual content-model operators. The DTD
// serves three roles in the paper: (1) the target schema from which the
// template generator builds Drop Boxes, (2) the source of "1-labeled"
// edges (parent-child pairs in a one-to-one relationship), and (3) the
// metadata filter behind interaction-reduction rule R1 (the paper used
// Relax NG; any schema formalism that answers "is this tag sequence
// realizable" works, see DESIGN.md).
package dtd

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"
)

// Occurs is a content-particle occurrence modifier.
type Occurs int

const (
	// One means exactly once (no modifier).
	One Occurs = iota
	// Opt is "?".
	Opt
	// Star is "*".
	Star
	// Plus is "+".
	Plus
)

func (o Occurs) String() string {
	switch o {
	case Opt:
		return "?"
	case Star:
		return "*"
	case Plus:
		return "+"
	default:
		return ""
	}
}

// CMKind is the kind of a content-model particle.
type CMKind int

const (
	// CMName is a reference to a child element type.
	CMName CMKind = iota
	// CMSeq is a sequence (a, b, c).
	CMSeq
	// CMChoice is a choice (a | b | c).
	CMChoice
	// CMPCData is #PCDATA.
	CMPCData
	// CMEmpty is the EMPTY content model.
	CMEmpty
	// CMAny is the ANY content model.
	CMAny
)

// ContentModel is a content-model particle tree.
type ContentModel struct {
	Kind     CMKind
	Name     string // for CMName
	Children []*ContentModel
	Occurs   Occurs
}

// String renders the particle in DTD syntax.
func (c *ContentModel) String() string {
	var body string
	switch c.Kind {
	case CMName:
		body = c.Name
	case CMPCData:
		body = "#PCDATA"
	case CMEmpty:
		return "EMPTY"
	case CMAny:
		return "ANY"
	case CMSeq, CMChoice:
		sep := ","
		if c.Kind == CMChoice {
			sep = "|"
		}
		parts := make([]string, len(c.Children))
		for i, ch := range c.Children {
			parts[i] = ch.String()
		}
		body = "(" + strings.Join(parts, sep) + ")"
	}
	return body + c.Occurs.String()
}

// AttrType is the declared type of an attribute.
type AttrType int

const (
	// CDATA is free text.
	CDATA AttrType = iota
	// ID is a document-unique identifier.
	ID
	// IDREF references an ID.
	IDREF
	// IDREFS is a space-separated list of IDREFs.
	IDREFS
	// Enumerated is a (a|b|c) value set.
	Enumerated
)

func (t AttrType) String() string {
	switch t {
	case ID:
		return "ID"
	case IDREF:
		return "IDREF"
	case IDREFS:
		return "IDREFS"
	case Enumerated:
		return "ENUM"
	default:
		return "CDATA"
	}
}

// AttrDecl is one ATTLIST entry.
type AttrDecl struct {
	Element  string
	Name     string
	Type     AttrType
	Values   []string // for Enumerated
	Required bool
	Default  string
}

// ElementDecl is one ELEMENT declaration plus its attributes.
type ElementDecl struct {
	Name    string
	Content *ContentModel
	Attrs   []*AttrDecl
	// ord is the element's position in the DTD's declaration order; its
	// StepPath state is ord+1.
	ord int32
}

// Mixed reports whether the content model allows character data.
func (e *ElementDecl) Mixed() bool {
	return containsKind(e.Content, CMPCData) || (e.Content != nil && e.Content.Kind == CMAny)
}

func containsKind(c *ContentModel, k CMKind) bool {
	if c == nil {
		return false
	}
	if c.Kind == k {
		return true
	}
	for _, ch := range c.Children {
		if containsKind(ch, k) {
			return true
		}
	}
	return false
}

// Attr returns the declaration of the named attribute, or nil.
func (e *ElementDecl) Attr(name string) *AttrDecl {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// DTD is a parsed document type definition.
type DTD struct {
	// RootName is the document element. It defaults to the first
	// declared element and can be overridden with SetRoot.
	RootName string
	Elements map[string]*ElementDecl
	order    []string
}

// Element returns the declaration for the named element, or nil.
func (d *DTD) Element(name string) *ElementDecl { return d.Elements[name] }

// ElementNames returns the declared element names in declaration order.
func (d *DTD) ElementNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// SetRoot overrides the document element.
func (d *DTD) SetRoot(name string) error {
	if _, ok := d.Elements[name]; !ok {
		return fmt.Errorf("dtd: no element declaration for root %q", name)
	}
	d.RootName = name
	return nil
}

// AlphabetSize is the number of element types plus declared attributes;
// the paper's "k" (number of characters the path language is defined
// over).
func (d *DTD) AlphabetSize() int {
	n := len(d.Elements)
	for _, e := range d.Elements {
		n += len(e.Attrs)
	}
	return n
}

// Labels returns the sorted label alphabet (element names and "@attr").
func (d *DTD) Labels() []string {
	var out []string
	for name, e := range d.Elements {
		out = append(out, name)
		for _, a := range e.Attrs {
			out = append(out, "@"+a.Name)
		}
	}
	sort.Strings(out)
	// Deduplicate: the same @attr may be declared on several elements.
	w := 0
	for i, s := range out {
		if i == 0 || s != out[w-1] {
			out[w] = s
			w++
		}
	}
	return out[:w]
}

// ChildNames returns the set of element names that may occur as
// children of the named element, sorted.
func (d *DTD) ChildNames(elem string) []string {
	e := d.Elements[elem]
	if e == nil {
		return nil
	}
	seen := map[string]bool{}
	collectNames(e.Content, seen)
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ChildNamesInOrder returns the child element names in content-model
// (left-to-right declaration) order, deduplicated.
func (d *DTD) ChildNamesInOrder(elem string) []string {
	e := d.Elements[elem]
	if e == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	var walk func(c *ContentModel)
	walk = func(c *ContentModel) {
		if c == nil {
			return
		}
		if c.Kind == CMName && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
		for _, ch := range c.Children {
			walk(ch)
		}
	}
	walk(e.Content)
	return out
}

func collectNames(c *ContentModel, seen map[string]bool) {
	if c == nil {
		return
	}
	if c.Kind == CMName {
		seen[c.Name] = true
	}
	for _, ch := range c.Children {
		collectNames(ch, seen)
	}
}

// unbounded marks an unlimited maximum occurrence count.
const unbounded = math.MaxInt32

// occRange computes the (min, max) number of occurrences of child name
// in one instantiation of particle c.
func occRange(c *ContentModel, name string) (int, int) {
	if c == nil {
		return 0, 0
	}
	var lo, hi int
	switch c.Kind {
	case CMName:
		if c.Name == name {
			lo, hi = 1, 1
		}
	case CMPCData, CMEmpty:
		lo, hi = 0, 0
	case CMAny:
		lo, hi = 0, unbounded
	case CMSeq:
		for _, ch := range c.Children {
			l, h := occRange(ch, name)
			lo += l
			hi = satAdd(hi, h)
		}
	case CMChoice:
		lo, hi = math.MaxInt32, 0
		for _, ch := range c.Children {
			l, h := occRange(ch, name)
			if l < lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		if len(c.Children) == 0 {
			lo = 0
		}
	}
	switch c.Occurs {
	case Opt:
		lo = 0
	case Star:
		lo = 0
		if hi > 0 {
			hi = unbounded
		}
	case Plus:
		if hi > 0 {
			hi = unbounded
		}
	}
	return lo, hi
}

func satAdd(a, b int) int {
	if a >= unbounded || b >= unbounded || a+b >= unbounded {
		return unbounded
	}
	return a + b
}

// OneToOne reports whether every parent element contains exactly one
// child element (min = max = 1 in the content model). These become the
// "1-labeled" edges of the template (paper §4.1).
func (d *DTD) OneToOne(parent, child string) bool {
	e := d.Elements[parent]
	if e == nil {
		return false
	}
	lo, hi := occRange(e.Content, child)
	return lo == 1 && hi == 1
}

// MaxOccurs returns the maximum number of times child may occur under
// parent; math.MaxInt32 means unbounded.
func (d *DTD) MaxOccurs(parent, child string) int {
	e := d.Elements[parent]
	if e == nil {
		return 0
	}
	_, hi := occRange(e.Content, child)
	return hi
}

// AcceptsPath reports whether the label sequence (starting at the
// document element) is realizable under the DTD: each step must be an
// allowed child of the previous element, or a declared attribute (only
// in final position). This implements the metadata filter of rule R1.
func (d *DTD) AcceptsPath(path []string) bool {
	if len(path) == 0 {
		return true
	}
	if path[0] != d.RootName {
		return false
	}
	cur := d.Elements[path[0]]
	if cur == nil {
		return false
	}
	for i := 1; i < len(path); i++ {
		label := path[i]
		if strings.HasPrefix(label, "@") {
			if i != len(path)-1 {
				return false
			}
			return cur.Attr(label[1:]) != nil
		}
		if cur.Content != nil && cur.Content.Kind == CMAny {
			next := d.Elements[label]
			if next == nil {
				return false
			}
			cur = next
			continue
		}
		lo, hi := 0, 0
		if cur.Content != nil {
			lo, hi = occRange(cur.Content, label)
		}
		_ = lo
		if hi == 0 {
			return false
		}
		next := d.Elements[label]
		if next == nil {
			return false
		}
		cur = next
	}
	return true
}

// StepPath implements core.PathFilter, stepping AcceptsPath's check
// one label at a time. State 0 is the empty path, state i+1 a path
// ending at the i-th declared element, and len(declarations)+1 a path
// ending at an attribute, which has no extensions.
func (d *DTD) StepPath(from int32, label string) int32 {
	attrLeaf := int32(len(d.order)) + 1
	if from == 0 {
		if label != d.RootName {
			return -1
		}
		return d.elementState(label)
	}
	if from < 0 || from >= attrLeaf {
		return -1
	}
	cur := d.Elements[d.order[from-1]]
	if strings.HasPrefix(label, "@") {
		if cur.Attr(label[1:]) != nil {
			return attrLeaf
		}
		return -1
	}
	if cur.Content == nil || cur.Content.Kind != CMAny {
		if _, hi := occRange(cur.Content, label); hi == 0 {
			return -1
		}
	}
	return d.elementState(label)
}

// elementState returns the StepPath state of the named element, -1
// when it is undeclared.
func (d *DTD) elementState(name string) int32 {
	e := d.Elements[name]
	if e == nil {
		return -1
	}
	return e.ord + 1
}

// String renders the DTD back to declaration syntax.
func (d *DTD) String() string {
	var b strings.Builder
	for _, name := range d.order {
		e := d.Elements[name]
		content := "EMPTY"
		if e.Content != nil {
			content = e.Content.String()
			if e.Content.Kind != CMEmpty && e.Content.Kind != CMAny && !strings.HasPrefix(content, "(") {
				content = "(" + content + ")"
			}
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, content)
		for _, a := range e.Attrs {
			typ := a.Type.String()
			if a.Type == Enumerated {
				typ = "(" + strings.Join(a.Values, "|") + ")"
			}
			dflt := "#IMPLIED"
			if a.Required {
				dflt = "#REQUIRED"
			} else if a.Default != "" {
				dflt = `"` + a.Default + `"`
			}
			fmt.Fprintf(&b, "<!ATTLIST %s %s %s %s>\n", name, a.Name, typ, dflt)
		}
	}
	return b.String()
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == ':'
}
