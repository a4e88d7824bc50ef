package pathre

import "slices"

// nfa is a Thompson-construction automaton with epsilon transitions.
// States are numbered densely from 0.
type nfa struct {
	numStates int
	start     int
	accept    int
	eps       [][]int
	// edges[state] = transitions; sym == -1 means "any symbol".
	edges [][]nfaEdge
}

type nfaEdge struct {
	sym int // index into alphabet; -1 = any
	to  int
}

func (m *nfa) state() int {
	m.eps = append(m.eps, nil)
	m.edges = append(m.edges, nil)
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
	labels := Labels(e)
	syms := extend(alphabet, labels)
	symIdx := indexOf(syms)
	mentioned := make([]bool, len(syms))
	for _, s := range labels {
		mentioned[symIdx[s]] = true
	}

	m := &nfa{}
	f := build(m, e, symIdx)
	m.start, m.accept = f.in, f.out
	acc, trans := subset(m, mentioned)
	return minimal(syms, symIdx, 0, acc, trans)
}

// extend returns the sorted set of the symbols of alphabet and words,
// allocated at about its size: compiled automata keep it.
func extend(alphabet []string, words ...[]string) []string {
	n := len(alphabet)
	for _, w := range words {
		n += len(w)
	}
	syms := append(make([]string, 0, n), alphabet...)
	for _, w := range words {
		syms = append(syms, w...)
	}
	slices.Sort(syms)
	return slices.Compact(syms)
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

// subset performs the subset construction, building the complete DFA
// straight into minimal's input form: subset states in discovery order
// (all reachable, state 0 the start), acceptance acc[i], and successors
// trans[i*k+s] for the k = len(mentioned) symbols. A symbol the
// expression does not mention moves only along wildcard edges, so one
// move, made at the first such symbol (where it discovers its subset),
// serves them all. Subsets are sorted NFA state lists, back to back.
func subset(m *nfa, mentioned []bool) (acc []bool, trans []int32) {
	k := len(mentioned)
	mark := make([]int32, m.numStates) // stamp of the last subset built with q
	var stamp int32
	var nxt []int32     // the subset being built
	var members []int32 // every subset's states, back to back
	off := []int32{0}   // subset i is members[off[i]:off[i+1]]
	ids := map[string]int32{}
	var key []byte
	add := func(q int) {
		if mark[q] != stamp {
			mark[q] = stamp
			nxt = append(nxt, int32(q))
		}
	}
	// intern closes nxt under epsilon moves and returns its subset,
	// discovering it if it is new.
	intern := func() int32 {
		for i := 0; i < len(nxt); i++ {
			for _, to := range m.eps[nxt[i]] {
				add(to)
			}
		}
		slices.Sort(nxt)
		key = key[:0]
		for _, q := range nxt {
			key = append(key, byte(q), byte(q>>8), byte(q>>16))
		}
		if id, ok := ids[string(key)]; ok {
			return id
		}
		id := int32(len(off) - 1)
		ids[string(key)] = id
		members = append(members, nxt...)
		off = append(off, int32(len(members)))
		return id
	}

	stamp++
	add(m.start)
	intern()
	for i := 0; i < len(off)-1; i++ {
		other := int32(-1)
		for s := 0; s < k; s++ {
			if !mentioned[s] && other >= 0 {
				trans = append(trans, other)
				continue
			}
			stamp++
			nxt = nxt[:0]
			for _, q := range members[off[i]:off[i+1]] {
				for _, e := range m.edges[q] {
					if e.sym == s || e.sym == -1 {
						add(e.to)
					}
				}
			}
			id := intern()
			if !mentioned[s] {
				other = id
			}
			trans = append(trans, id)
		}
	}
	acc = make([]bool, len(off)-1)
	for i := range acc {
		_, acc[i] = slices.BinarySearch(members[off[i]:off[i+1]], int32(m.accept))
	}
	return acc, trans
}
