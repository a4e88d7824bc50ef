// Package relaxng implements the subset of Relax NG compact syntax that
// rule R1 needs: named pattern definitions over element/attribute
// structure. The paper states "the current prototype uses the Relax NG
// for filtering" (Section 8); a parsed schema answers the same
// realizability question as the DTD filter and the DataGuide, and plugs
// into core.Options.R1Filter.
//
// Supported grammar (compact syntax):
//
//	start = pattern
//	Name = pattern
//	pattern := "element" NAME "{" pattern "}"
//	         | "attribute" NAME "{" "text" "}"
//	         | "text" | "empty"
//	         | Name                      (reference)
//	         | pattern "," pattern       (group)
//	         | pattern "|" pattern       (choice)
//	         | pattern ("*" | "+" | "?")
//	         | "(" pattern ")"
package relaxng

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/must"
)

// Kind discriminates pattern constructors.
type Kind int

// Pattern kinds.
const (
	KElement Kind = iota
	KAttribute
	KText
	KEmpty
	KRef
	KGroup
	KChoice
	KRepeat // * + ? all behave alike for realizability
)

// Pattern is one node of the schema's pattern AST.
type Pattern struct {
	Kind     Kind
	Name     string // element/attribute/ref name
	Children []*Pattern
}

// Schema is a parsed Relax NG compact schema.
type Schema struct {
	// Start is the start pattern.
	Start *Pattern
	// Defs maps definition names to patterns.
	Defs map[string]*Pattern

	// steps is the path automaton behind StepPath, built lazily.
	steps stepper
}

// Parse reads compact syntax.
func Parse(src string) (*Schema, error) {
	p := &rparser{src: src}
	s := &Schema{Defs: map[string]*Pattern{}}
	for {
		p.skip()
		if p.eof() {
			break
		}
		name := p.ident()
		if name == "" {
			return nil, p.errf("expected a definition name")
		}
		p.skip()
		if !p.consume("=") {
			return nil, p.errf("expected = after %q", name)
		}
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if name == "start" {
			s.Start = pat
		} else {
			if _, dup := s.Defs[name]; dup {
				return nil, fmt.Errorf("relaxng: duplicate definition %q", name)
			}
			s.Defs[name] = pat
		}
	}
	if s.Start == nil {
		return nil, fmt.Errorf("relaxng: no start pattern")
	}
	return s, nil
}

// MustParse parses src and panics on error. For embedded schema
// literals only; runtime input goes through Parse.
func MustParse(src string) *Schema {
	return must.Must(Parse(src))
}

type rparser struct {
	src string
	pos int
}

func (p *rparser) eof() bool { return p.pos >= len(p.src) }

func (p *rparser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("relaxng: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *rparser) skip() {
	for !p.eof() {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == '#' { // comment to end of line
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

func (p *rparser) consume(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func isIdentByte(b byte) bool {
	return b == '_' || b == '-' || b == '.' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func (p *rparser) ident() string {
	start := p.pos
	for !p.eof() && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

// pattern := alternatives of groups of postfixed atoms.
func (p *rparser) pattern() (*Pattern, error) {
	first, err := p.group()
	if err != nil {
		return nil, err
	}
	alts := []*Pattern{first}
	for {
		p.skip()
		if !p.consume("|") {
			break
		}
		next, err := p.group()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return &Pattern{Kind: KChoice, Children: alts}, nil
}

func (p *rparser) group() (*Pattern, error) {
	first, err := p.postfixed()
	if err != nil {
		return nil, err
	}
	parts := []*Pattern{first}
	for {
		p.skip()
		if !p.consume(",") {
			break
		}
		next, err := p.postfixed()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return &Pattern{Kind: KGroup, Children: parts}, nil
}

func (p *rparser) postfixed() (*Pattern, error) {
	atom, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		p.skip()
		if p.consume("*") || p.consume("+") || p.consume("?") {
			atom = &Pattern{Kind: KRepeat, Children: []*Pattern{atom}}
			continue
		}
		return atom, nil
	}
}

func (p *rparser) atom() (*Pattern, error) {
	p.skip()
	if p.consume("(") {
		inner, err := p.pattern()
		if err != nil {
			return nil, err
		}
		p.skip()
		if !p.consume(")") {
			return nil, p.errf("missing )")
		}
		return inner, nil
	}
	id := p.ident()
	switch id {
	case "":
		return nil, p.errf("expected a pattern at %.20q", p.src[p.pos:])
	case "text":
		return &Pattern{Kind: KText}, nil
	case "empty":
		return &Pattern{Kind: KEmpty}, nil
	case "element", "attribute":
		p.skip()
		name := p.ident()
		if name == "" {
			return nil, p.errf("expected a name after %s", id)
		}
		p.skip()
		if !p.consume("{") {
			return nil, p.errf("expected { after %s %s", id, name)
		}
		inner, err := p.pattern()
		if err != nil {
			return nil, err
		}
		p.skip()
		if !p.consume("}") {
			return nil, p.errf("missing } after %s %s", id, name)
		}
		k := KElement
		if id == "attribute" {
			k = KAttribute
		}
		return &Pattern{Kind: k, Name: name, Children: []*Pattern{inner}}, nil
	default:
		return &Pattern{Kind: KRef, Name: id}, nil
	}
}

// --- realizability semantics for rule R1 ---

// elementPatterns collects the element patterns reachable from p
// without descending through another element (i.e. the element types
// allowed at this level), expanding references.
func (s *Schema) elementPatterns(p *Pattern, out map[string][]*Pattern, seen map[string]bool) {
	switch p.Kind {
	case KElement:
		out[p.Name] = append(out[p.Name], p)
	case KGroup, KChoice, KRepeat:
		for _, c := range p.Children {
			s.elementPatterns(c, out, seen)
		}
	case KRef:
		if seen[p.Name] {
			return
		}
		seen[p.Name] = true
		if def := s.Defs[p.Name]; def != nil {
			s.elementPatterns(def, out, seen)
		}
	}
}

// attributeAllowed reports whether an attribute named name can occur
// directly in the pattern (not inside nested elements).
func (s *Schema) attributeAllowed(p *Pattern, name string, seen map[string]bool) bool {
	switch p.Kind {
	case KAttribute:
		return p.Name == name
	case KGroup, KChoice, KRepeat:
		for _, c := range p.Children {
			if s.attributeAllowed(c, name, seen) {
				return true
			}
		}
	case KRef:
		if seen[p.Name] {
			return false
		}
		seen[p.Name] = true
		if def := s.Defs[p.Name]; def != nil {
			return s.attributeAllowed(def, name, seen)
		}
	}
	return false
}

// AcceptsPath implements core.PathFilter: is the label path (element
// tags with an optional final "@attr") realizable under the schema?
func (s *Schema) AcceptsPath(path []string) bool {
	if len(path) == 0 {
		return true
	}
	// Current candidate element patterns, starting from the start
	// pattern's allowed roots.
	level := map[string][]*Pattern{}
	s.elementPatterns(s.Start, level, map[string]bool{})
	current := level[path[0]]
	if strings.HasPrefix(path[0], "@") {
		return false
	}
	if len(current) == 0 {
		return false
	}
	for i, label := range path[1:] {
		if strings.HasPrefix(label, "@") {
			if i != len(path)-2 {
				return false // attributes have no descendants
			}
			name := label[1:]
			for _, el := range current {
				if s.attributeAllowed(el.Children[0], name, map[string]bool{}) {
					return true
				}
			}
			return false
		}
		next := map[string][]*Pattern{}
		for _, el := range current {
			s.elementPatterns(el.Children[0], next, map[string]bool{})
		}
		current = next[label]
		if len(current) == 0 {
			return false
		}
	}
	return true
}

// stepper is a schema's path automaton for StepPath, determinized
// lazily as paths are stepped. A state is the set of element patterns a
// path can end on, interned by its members; state 0 is the empty path
// and state 1 a path ending at an attribute, which has no extensions.
// Transitions are memoized per (state, label). The mutex makes
// StepPath safe for concurrent use by the sessions sharing a schema.
type stepper struct {
	mu    sync.Mutex
	sets  [][]*Pattern
	ids   map[string]int32
	next  map[stepKey]int32
	patID map[*Pattern]int
}

type stepKey struct {
	from  int32
	label string
}

const attrLeafState = 1

// StepPath implements core.PathFilter, stepping AcceptsPath's check
// one label at a time.
func (s *Schema) StepPath(from int32, label string) int32 {
	st := &s.steps
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sets == nil {
		st.sets = [][]*Pattern{nil, nil}
		st.ids = map[string]int32{}
		st.next = map[stepKey]int32{}
		st.patID = map[*Pattern]int{}
	}
	if from < 0 || int(from) >= len(st.sets) || from == attrLeafState {
		return -1
	}
	k := stepKey{from, label}
	if to, ok := st.next[k]; ok {
		return to
	}
	to := s.step(st, from, label)
	st.next[k] = to
	return to
}

// step computes one StepPath transition under st's lock.
func (s *Schema) step(st *stepper, from int32, label string) int32 {
	level := map[string][]*Pattern{}
	if from == 0 {
		if strings.HasPrefix(label, "@") {
			return -1
		}
		s.elementPatterns(s.Start, level, map[string]bool{})
		return st.intern(level[label])
	}
	current := st.sets[from]
	if name, ok := strings.CutPrefix(label, "@"); ok {
		for _, el := range current {
			if s.attributeAllowed(el.Children[0], name, map[string]bool{}) {
				return attrLeafState
			}
		}
		return -1
	}
	for _, el := range current {
		s.elementPatterns(el.Children[0], level, map[string]bool{})
	}
	return st.intern(level[label])
}

// intern returns the state of a set of element patterns, -1 for the
// empty set.
func (st *stepper) intern(set []*Pattern) int32 {
	if len(set) == 0 {
		return -1
	}
	ids := make([]int, 0, len(set))
	for _, p := range set {
		id, ok := st.patID[p]
		if !ok {
			id = len(st.patID)
			st.patID[p] = id
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(strconv.Itoa(id))
		b.WriteByte(',')
	}
	key := b.String()
	if to, ok := st.ids[key]; ok {
		return to
	}
	to := int32(len(st.sets))
	st.sets = append(st.sets, set)
	st.ids[key] = to
	return to
}
