package dtd

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/must"
)

// Parse parses a DTD (a sequence of <!ELEMENT ...> and <!ATTLIST ...>
// declarations; comments and other markup declarations are skipped).
// The first declared element becomes the root unless SetRoot is called.
func Parse(src string) (*DTD, error) {
	p := &parser{src: src}
	d := &DTD{Elements: map[string]*ElementDecl{}}
	placeholders := map[string]bool{} // created by a forward ATTLIST
	p.placeholders = placeholders
	for {
		p.skipSpaceAndComments()
		if p.eof() {
			break
		}
		if !p.consume("<!") {
			return nil, p.errf("expected markup declaration")
		}
		kw := p.name()
		switch kw {
		case "ELEMENT":
			decl, err := p.elementDecl()
			if err != nil {
				return nil, err
			}
			if prev, dup := d.Elements[decl.Name]; dup {
				if !placeholders[decl.Name] {
					return nil, fmt.Errorf("dtd: duplicate element declaration %q", decl.Name)
				}
				prev.Content = decl.Content
				delete(placeholders, decl.Name)
				break
			}
			decl.ord = int32(len(d.order))
			d.Elements[decl.Name] = decl
			d.order = append(d.order, decl.Name)
			if d.RootName == "" {
				d.RootName = decl.Name
			}
		case "ATTLIST":
			if err := p.attlistDecl(d); err != nil {
				return nil, err
			}
		case "ENTITY", "NOTATION", "DOCTYPE":
			p.skipToDeclEnd()
		default:
			return nil, p.errf("unknown declaration <!%s", kw)
		}
	}
	if len(d.Elements) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	return d, nil
}

// ParseReader reads a DTD from r, returning read errors as well as
// syntax errors. Runtime input (schema files) comes through here or
// Parse; neither ever panics.
func ParseReader(r io.Reader) (*DTD, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtd: read: %w", err)
	}
	return Parse(string(src))
}

// MustParse parses src and panics on error. For embedded schema
// literals only; runtime input goes through Parse/ParseReader.
func MustParse(src string) *DTD {
	return must.Must(Parse(src))
}

type parser struct {
	src          string
	pos          int
	placeholders map[string]bool
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("dtd: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) skipSpaceAndComments() {
	for {
		p.skipSpace()
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		return
	}
}

func (p *parser) consume(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) name() string {
	start := p.pos
	for !p.eof() && isNameRune(rune(p.src[p.pos])) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) skipToDeclEnd() {
	depth := 1
	for !p.eof() {
		switch p.src[p.pos] {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				p.pos++
				return
			}
		}
		p.pos++
	}
}

func (p *parser) elementDecl() (*ElementDecl, error) {
	p.skipSpace()
	name := p.name()
	if name == "" {
		return nil, p.errf("missing element name")
	}
	p.skipSpace()
	var cm *ContentModel
	switch {
	case p.consume("EMPTY"):
		cm = &ContentModel{Kind: CMEmpty}
	case p.consume("ANY"):
		cm = &ContentModel{Kind: CMAny}
	default:
		var err error
		cm, err = p.particle()
		if err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if !p.consume(">") {
		return nil, p.errf("expected > after ELEMENT %s", name)
	}
	return &ElementDecl{Name: name, Content: cm}, nil
}

// particle parses a parenthesized group or a single name with an
// optional occurrence modifier.
func (p *parser) particle() (*ContentModel, error) {
	p.skipSpace()
	if p.consume("(") {
		var children []*ContentModel
		var sep byte
		for {
			ch, err := p.particle()
			if err != nil {
				return nil, err
			}
			children = append(children, ch)
			p.skipSpace()
			c := p.peek()
			if c == ',' || c == '|' {
				if sep != 0 && sep != c {
					return nil, p.errf("mixed , and | in one group")
				}
				sep = c
				p.pos++
				continue
			}
			if p.consume(")") {
				break
			}
			return nil, p.errf("expected , | or ) in content model")
		}
		kind := CMSeq
		if sep == '|' {
			kind = CMChoice
		}
		occ := p.occurs()
		if len(children) == 1 && sep == 0 {
			// Collapse a redundant single-child group, e.g. (a*) == a*,
			// but keep the wrapper when both carry modifiers, (a*)?, or
			// when the child is #PCDATA ("(#PCDATA)*" must stay grouped
			// to render back to legal syntax).
			inner := children[0]
			if occ == One {
				return inner, nil
			}
			if inner.Occurs == One && inner.Kind != CMPCData {
				inner.Occurs = occ
				return inner, nil
			}
		}
		return &ContentModel{Kind: kind, Children: children, Occurs: occ}, nil
	}
	if p.consume("#PCDATA") {
		return &ContentModel{Kind: CMPCData}, nil
	}
	name := p.name()
	if name == "" {
		return nil, p.errf("expected content particle")
	}
	return &ContentModel{Kind: CMName, Name: name, Occurs: p.occurs()}, nil
}

func (p *parser) occurs() Occurs {
	switch p.peek() {
	case '?':
		p.pos++
		return Opt
	case '*':
		p.pos++
		return Star
	case '+':
		p.pos++
		return Plus
	}
	return One
}

func (p *parser) attlistDecl(d *DTD) error {
	p.skipSpace()
	elem := p.name()
	if elem == "" {
		return p.errf("missing ATTLIST element name")
	}
	for {
		p.skipSpace()
		if p.consume(">") {
			return nil
		}
		attr := p.name()
		if attr == "" {
			return p.errf("expected attribute name in ATTLIST %s", elem)
		}
		p.skipSpace()
		decl := &AttrDecl{Element: elem, Name: attr}
		switch {
		case p.consume("CDATA"):
			decl.Type = CDATA
		case p.consume("IDREFS"):
			decl.Type = IDREFS
		case p.consume("IDREF"):
			decl.Type = IDREF
		case p.consume("ID"):
			decl.Type = ID
		case p.consume("NMTOKENS"), p.consume("NMTOKEN"):
			decl.Type = CDATA
		case p.peek() == '(':
			p.pos++
			decl.Type = Enumerated
			for {
				p.skipSpace()
				v := p.name()
				if v == "" {
					return p.errf("expected enumeration value")
				}
				decl.Values = append(decl.Values, v)
				p.skipSpace()
				if p.consume("|") {
					continue
				}
				if p.consume(")") {
					break
				}
				return p.errf("expected | or ) in enumeration")
			}
		default:
			return p.errf("unknown attribute type for %s/%s", elem, attr)
		}
		p.skipSpace()
		switch {
		case p.consume("#REQUIRED"):
			decl.Required = true
		case p.consume("#IMPLIED"):
		case p.consume("#FIXED"):
			p.skipSpace()
			decl.Default = p.quoted()
		case p.peek() == '"' || p.peek() == '\'':
			decl.Default = p.quoted()
		default:
			return p.errf("expected default declaration for %s/%s", elem, attr)
		}
		el := d.Elements[elem]
		if el == nil {
			// Forward ATTLIST: create a placeholder declaration so the
			// attribute is not lost; content arrives with the ELEMENT decl.
			el = &ElementDecl{Name: elem, Content: &ContentModel{Kind: CMEmpty}, ord: int32(len(d.order))}
			d.Elements[elem] = el
			d.order = append(d.order, elem)
			p.placeholders[elem] = true
			if d.RootName == "" {
				d.RootName = elem
			}
		}
		el.Attrs = append(el.Attrs, decl)
	}
}

func (p *parser) quoted() string {
	q := p.peek()
	if q != '"' && q != '\'' {
		return ""
	}
	p.pos++
	start := p.pos
	for !p.eof() && p.src[p.pos] != q {
		p.pos++
	}
	s := p.src[start:p.pos]
	if !p.eof() {
		p.pos++
	}
	return s
}
