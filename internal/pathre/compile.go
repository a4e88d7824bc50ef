package pathre

import "sort"

// nfa is a Thompson-construction automaton with epsilon transitions.
type nfa struct {
	numStates int
	start     int
	accept    int
	eps       map[int][]int
	// edges[state] = transitions; sym == -1 means "any symbol".
	edges map[int][]nfaEdge
}

type nfaEdge struct {
	sym int // index into alphabet; -1 = any
	to  int
}

func newNFA() *nfa {
	return &nfa{eps: map[int][]int{}, edges: map[int][]nfaEdge{}}
}

func (m *nfa) state() int {
	m.numStates++
	return m.numStates - 1
}

func (m *nfa) addEps(from, to int)       { m.eps[from] = append(m.eps[from], to) }
func (m *nfa) addEdge(from, sym, to int) { m.edges[from] = append(m.edges[from], nfaEdge{sym, to}) }

// frag is an NFA fragment with single entry and exit.
type frag struct{ in, out int }

// Compile builds the minimal complete DFA for expression e over the
// given alphabet. Literal labels of e that are missing from alphabet
// are added (so the alphabet is always a superset of Labels(e)).
func Compile(e Expr, alphabet []string) *DFA {
	full := map[string]bool{}
	for _, s := range alphabet {
		full[s] = true
	}
	for _, s := range Labels(e) {
		full[s] = true
	}
	syms := make([]string, 0, len(full))
	for s := range full {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	symIdx := indexOf(syms)

	m := newNFA()
	f := build(m, e, symIdx)
	m.start, m.accept = f.in, f.out
	acc, trans := subset(m, len(syms))
	return minimal(syms, symIdx, 0, acc, trans)
}

func build(m *nfa, e Expr, sym map[string]int) frag {
	switch t := e.(type) {
	case Lit:
		in, out := m.state(), m.state()
		m.addEdge(in, sym[t.Label], out)
		return frag{in, out}
	case Any:
		in, out := m.state(), m.state()
		m.addEdge(in, -1, out)
		return frag{in, out}
	case Empty:
		in, out := m.state(), m.state()
		m.addEps(in, out)
		return frag{in, out}
	case None:
		in, out := m.state(), m.state()
		return frag{in, out}
	case Concat:
		if len(t.Parts) == 0 {
			return build(m, Empty{}, sym)
		}
		first := build(m, t.Parts[0], sym)
		cur := first
		for _, p := range t.Parts[1:] {
			nx := build(m, p, sym)
			m.addEps(cur.out, nx.in)
			cur = frag{first.in, nx.out}
		}
		return cur
	case Alt:
		in, out := m.state(), m.state()
		for _, p := range t.Parts {
			f := build(m, p, sym)
			m.addEps(in, f.in)
			m.addEps(f.out, out)
		}
		return frag{in, out}
	case Star:
		in, out := m.state(), m.state()
		f := build(m, t.Sub, sym)
		m.addEps(in, f.in)
		m.addEps(in, out)
		m.addEps(f.out, f.in)
		m.addEps(f.out, out)
		return frag{in, out}
	case Plus:
		f := build(m, t.Sub, sym)
		in, out := m.state(), m.state()
		m.addEps(in, f.in)
		m.addEps(f.out, f.in)
		m.addEps(f.out, out)
		return frag{in, out}
	case Opt:
		in, out := m.state(), m.state()
		f := build(m, t.Sub, sym)
		m.addEps(in, f.in)
		m.addEps(in, out)
		m.addEps(f.out, out)
		return frag{in, out}
	default:
		panic("pathre: unknown expression type")
	}
}

// subset performs the subset construction over k symbols, building
// the complete DFA straight into minimal's input form: subset states in
// discovery order (all reachable, state 0 the start), acceptance
// acc[i], and successors trans[i*k+s].
func subset(m *nfa, k int) (acc []bool, trans []int32) {
	closure := func(set map[int]bool) map[int]bool {
		stack := make([]int, 0, len(set))
		for q := range set {
			stack = append(stack, q)
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nx := range m.eps[q] {
				if !set[nx] {
					set[nx] = true
					stack = append(stack, nx)
				}
			}
		}
		return set
	}
	key := func(set map[int]bool) string {
		qs := make([]int, 0, len(set))
		for q := range set {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		b := make([]byte, 0, len(qs)*3)
		for _, q := range qs {
			b = append(b, byte(q), byte(q>>8), byte(q>>16))
		}
		return string(b)
	}

	startSet := closure(map[int]bool{m.start: true})
	ids := map[string]int32{key(startSet): 0}
	sets := []map[int]bool{startSet}
	for i := 0; i < len(sets); i++ {
		cur := sets[i]
		for s := 0; s < k; s++ {
			nxt := map[int]bool{}
			for q := range cur {
				for _, e := range m.edges[q] {
					if e.sym == s || e.sym == -1 {
						nxt[e.to] = true
					}
				}
			}
			nxt = closure(nxt)
			sk := key(nxt)
			id, ok := ids[sk]
			if !ok {
				id = int32(len(sets))
				ids[sk] = id
				sets = append(sets, nxt)
			}
			trans = append(trans, id)
		}
	}
	acc = make([]bool, len(sets))
	for i, set := range sets {
		acc[i] = set[m.accept]
	}
	return acc, trans
}
