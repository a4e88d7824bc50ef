package pathre

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// DFA is a complete deterministic finite automaton over a fixed label
// alphabet. Transitions are total: every state has an outgoing edge for
// every symbol (a rejecting sink is materialized as needed).
//
// A DFA is immutable once its constructor (NewDFA plus the caller's
// fills, or any operation below) returns, so it is safe to share
// between goroutines. Automata derived from one another share the
// sorted Alphabet and the symbol index: neither is ever written after
// construction.
type DFA struct {
	// Alphabet is the sorted symbol set.
	Alphabet []string
	// Start is the initial state index.
	Start int
	// Accept[q] reports whether state q is accepting.
	Accept []bool
	// Trans[q][i] is the successor of state q on Alphabet[i]. The rows
	// are carved from one flat array.
	Trans [][]int

	symIndex map[string]int
}

// NewDFA constructs a DFA with the given alphabet and state count; all
// transitions initially self-loop on state 0. Callers fill Trans/Accept.
func NewDFA(alphabet []string, numStates int) *DFA {
	a := append([]string(nil), alphabet...)
	sort.Strings(a)
	return newDFA(a, indexOf(a), numStates)
}

// indexOf maps each symbol of a sorted alphabet to its position.
func indexOf(alphabet []string) map[string]int {
	index := make(map[string]int, len(alphabet))
	for i, s := range alphabet {
		index[s] = i
	}
	return index
}

// newDFA allocates a DFA over a sorted alphabet and its index, both
// adopted as they are, with every transition row carved from one flat
// array.
func newDFA(alphabet []string, index map[string]int, numStates int) *DFA {
	k := len(alphabet)
	flat := make([]int, numStates*k)
	d := &DFA{Alphabet: alphabet, Accept: make([]bool, numStates), Trans: make([][]int, numStates), symIndex: index}
	for q := range d.Trans {
		d.Trans[q] = flat[q*k : (q+1)*k : (q+1)*k]
	}
	return d
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// SymIndex returns the index of symbol s, or -1 if not in the alphabet.
func (d *DFA) SymIndex(s string) int {
	if i, ok := d.symIndex[s]; ok {
		return i
	}
	return -1
}

// Step returns the successor of q on symbol s; -1 if s is outside the
// alphabet (which the caller should treat as rejection).
func (d *DFA) Step(q int, s string) int {
	i := d.SymIndex(s)
	if i < 0 {
		return -1
	}
	return d.Trans[q][i]
}

// Run returns the state reached from Start on the input, or -1 if an
// input symbol is outside the alphabet.
func (d *DFA) Run(input []string) int {
	q := d.Start
	for _, s := range input {
		q = d.Step(q, s)
		if q < 0 {
			return -1
		}
	}
	return q
}

// Accepts reports whether the DFA accepts the label sequence.
func (d *DFA) Accepts(input []string) bool {
	q := d.Run(input)
	return q >= 0 && d.Accept[q]
}

// IsEmpty reports whether the accepted language is empty.
func (d *DFA) IsEmpty() bool {
	_, ok := d.ShortestAccepted()
	return !ok
}

// ShortestAccepted returns a shortest accepted string (BFS), if any.
func (d *DFA) ShortestAccepted() ([]string, bool) {
	type pred struct {
		state int
		sym   int
	}
	prev := make([]pred, d.NumStates())
	seen := make([]bool, d.NumStates())
	queue := []int{d.Start}
	seen[d.Start] = true
	prev[d.Start] = pred{-1, -1}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if d.Accept[q] {
			var rev []string
			for cur := q; prev[cur].state >= 0; cur = prev[cur].state {
				rev = append(rev, d.Alphabet[prev[cur].sym])
			}
			out := make([]string, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for i, nx := range d.Trans[q] {
			if !seen[nx] {
				seen[nx] = true
				prev[nx] = pred{q, i}
				queue = append(queue, nx)
			}
		}
	}
	return nil, false
}

// Minimize returns the minimal DFA for the same language, with
// unreachable states removed. States are numbered by the first
// occurrence of their block in the reachable states' index order, so
// the result — state numbering included — is a pure function of the
// language and that order.
func (d *DFA) Minimize() *DFA {
	start, states, trans := d.compact()
	acc := make([]bool, len(states))
	for i, q := range states {
		acc[i] = d.Accept[q]
	}
	return minimal(d.Alphabet, d.symIndex, start, acc, trans)
}

// compact renumbers d's reachable states in index order: states[i] is
// the original index of compact state i, trans[i*k+s] its compact
// successor on symbol s, and start the compact start state.
func (d *DFA) compact() (start int32, states, trans []int32) {
	n, k := d.NumStates(), len(d.Alphabet)
	idx := make([]int32, n)
	for q := range idx {
		idx[q] = -1
	}
	stack := []int32{int32(d.Start)}
	idx[d.Start] = 0
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nx := range d.Trans[q] {
			if idx[nx] < 0 {
				idx[nx] = 0
				stack = append(stack, int32(nx))
			}
		}
	}
	for q := range idx {
		if idx[q] == 0 {
			idx[q] = int32(len(states))
			states = append(states, int32(q))
		}
	}
	trans = make([]int32, len(states)*k)
	for i, q := range states {
		row := trans[i*k : (i+1)*k]
		for s, nx := range d.Trans[q] {
			row[s] = idx[nx]
		}
	}
	return idx[d.Start], states, trans
}

// minimal is the minimization kernel behind every operation: it
// returns the minimal DFA of the complete automaton whose states
// 0..n-1 (n = len(acc)) are all reachable from start, with successor
// trans[q*k+s] on symbol s. The result adopts alphabet and index.
//
// It is Moore's partition refinement on integers. Each round gives a
// state the signature (block, successor block per symbol); equal
// signatures share a block, found through an open-addressing table of
// first-occurrence representatives, and blocks are numbered by first
// occurrence in state order. Refinement stops when a round adds no
// block.
func minimal(alphabet []string, index map[string]int, start int32, acc []bool, trans []int32) *DFA {
	n, k := len(acc), len(alphabet)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	// One scratch allocation: the current and next block of every
	// state, each new block's representative, and the hash table
	// (block+1 per slot, 0 = empty).
	scratch := make([]int32, 3*n+size)
	part, next, rep, tab := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:2*n:3*n], scratch[3*n:]
	for i, a := range acc {
		if a {
			part[i] = 1
		}
	}
	mask := uint64(size - 1)
	numBlocks := 2
	for {
		clear(tab)
		rep = rep[:0]
		for i := 0; i < n; i++ {
			row := trans[i*k : (i+1)*k]
			h := uint64(part[i])
			for _, t := range row {
				h = (h ^ uint64(part[t])) * 0x100000001b3
			}
			slot := (h ^ h>>32) & mask
			for {
				b := tab[slot]
				if b == 0 {
					rep = append(rep, int32(i))
					tab[slot] = int32(len(rep))
					next[i] = int32(len(rep) - 1)
					break
				}
				if sameSignature(part, trans, k, rep[b-1], int32(i)) {
					next[i] = b - 1
					break
				}
				slot = (slot + 1) & mask
			}
		}
		part, next = next, part
		if len(rep) == numBlocks {
			break
		}
		numBlocks = len(rep)
	}
	out := newDFA(alphabet, index, numBlocks)
	for b, i := range rep {
		out.Accept[b] = acc[i]
		row := trans[int(i)*k : (int(i)+1)*k]
		for s, nx := range row {
			out.Trans[b][s] = int(part[nx])
		}
	}
	out.Start = int(part[start])
	return out
}

// sameSignature reports whether states i and j share a block and, on
// every symbol, successor blocks under the partition part.
func sameSignature(part, trans []int32, k int, i, j int32) bool {
	if part[i] != part[j] {
		return false
	}
	ri, rj := trans[int(i)*k:(int(i)+1)*k], trans[int(j)*k:(int(j)+1)*k]
	for s, t := range ri {
		if part[t] != part[rj[s]] {
			return false
		}
	}
	return true
}

// mustSameAlphabet panics unless both alphabets are identical. Every
// DFA in a learning session is built over the one alphabet of its
// source document, so a mismatch is a programming error (mixing
// automata from different sessions), not a recoverable input
// condition — this is one of the repository's few allowed invariant
// panics.
func mustSameAlphabet(a, b []string, op string) {
	same := len(a) == len(b)
	if same && len(a) > 0 && &a[0] == &b[0] {
		return // one shared alphabet
	}
	for i := 0; same && i < len(a); i++ {
		same = a[i] == b[i]
	}
	if !same {
		panic("pathre: " + op + " requires identical alphabets")
	}
}

// MustHaveAlphabet panics unless d is over exactly the given sorted
// alphabet. A caller that steps Trans on symbol positions it resolved
// against that alphabet asserts it first, so a foreign automaton fails
// loudly instead of reading the wrong rows.
func (d *DFA) MustHaveAlphabet(alphabet []string, op string) {
	mustSameAlphabet(d.Alphabet, alphabet, op)
}

// Distinguish searches for a shortest string on which d and o disagree.
// Both automata must share the same alphabet. It returns (witness, true)
// if the languages differ, or (nil, false) if they are equal.
func (d *DFA) Distinguish(o *DFA) ([]string, bool) {
	mustSameAlphabet(d.Alphabet, o.Alphabet, "Distinguish")
	type pair struct{ a, b int }
	type entry struct {
		p    pair
		prev int
		sym  int
	}
	start := pair{d.Start, o.Start}
	seen := map[pair]bool{start: true}
	entries := []entry{{p: start, prev: -1, sym: -1}}
	head := 0
	for head < len(entries) {
		e := entries[head]
		if d.Accept[e.p.a] != o.Accept[e.p.b] {
			var rev []string
			for cur := head; entries[cur].prev >= 0; cur = entries[cur].prev {
				rev = append(rev, d.Alphabet[entries[cur].sym])
			}
			out := make([]string, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for s := range d.Alphabet {
			np := pair{d.Trans[e.p.a][s], o.Trans[e.p.b][s]}
			if !seen[np] {
				seen[np] = true
				entries = append(entries, entry{p: np, prev: head, sym: s})
			}
		}
		head++
	}
	return nil, false
}

// Equal reports whether both automata accept the same language.
func (d *DFA) Equal(o *DFA) bool {
	_, diff := d.Distinguish(o)
	return !diff
}

// EnumerateAccepted returns up to limit accepted strings of length at
// most maxLen, in order of increasing length (BFS). Useful for tests
// and for teacher diagnostics.
func (d *DFA) EnumerateAccepted(maxLen, limit int) [][]string {
	var out [][]string
	type item struct {
		q    int
		path []string
	}
	queue := []item{{d.Start, nil}}
	for len(queue) > 0 && len(out) < limit {
		it := queue[0]
		queue = queue[1:]
		if d.Accept[it.q] {
			out = append(out, it.path)
			if len(out) >= limit {
				break
			}
		}
		if len(it.path) >= maxLen {
			continue
		}
		for s, nx := range d.Trans[it.q] {
			np := make([]string, len(it.path)+1)
			copy(np, it.path)
			np[len(it.path)] = d.Alphabet[s]
			queue = append(queue, item{nx, np})
		}
	}
	return out
}

// Complement returns the DFA accepting Σ* \ L(d) (over d's alphabet).
func (d *DFA) Complement() *DFA {
	start, states, trans := d.compact()
	acc := make([]bool, len(states))
	for i, q := range states {
		acc[i] = !d.Accept[q]
	}
	return minimal(d.Alphabet, d.symIndex, start, acc, trans)
}

// product builds the reachable product automaton with the given
// acceptance combiner and minimizes it. Both automata must share the
// alphabet. Pairs are numbered in discovery order through a dense
// |d|×|o| index, which is never larger than the worst-case product.
func (d *DFA) product(o *DFA, accept func(a, b bool) bool) *DFA {
	mustSameAlphabet(d.Alphabet, o.Alphabet, "product")
	k, no := len(d.Alphabet), o.NumStates()
	index := make([]int32, d.NumStates()*no) // pair → state+1; 0 = unseen
	// The reachable product of an automaton with a finer one is about
	// the finer one's size; start there so the table rarely regrows.
	guess := max(d.NumStates(), no)
	pairs := make([]int32, 0, 2*guess) // a, b of each state, interleaved
	add := func(a, b int) int32 {
		slot := &index[a*no+b]
		if *slot == 0 {
			pairs = append(pairs, int32(a), int32(b))
			*slot = int32(len(pairs) / 2)
		}
		return *slot - 1
	}
	add(d.Start, o.Start)
	trans := make([]int32, 0, guess*k)
	for i := 0; 2*i < len(pairs); i++ {
		ra, rb := d.Trans[pairs[2*i]], o.Trans[pairs[2*i+1]]
		for s := 0; s < k; s++ {
			trans = append(trans, add(ra[s], rb[s]))
		}
	}
	acc := make([]bool, len(pairs)/2)
	for i := range acc {
		acc[i] = accept(d.Accept[pairs[2*i]], o.Accept[pairs[2*i+1]])
	}
	return minimal(d.Alphabet, d.symIndex, 0, acc, trans)
}

// Intersect returns the DFA for L(d) ∩ L(o).
func (d *DFA) Intersect(o *DFA) *DFA {
	return d.product(o, func(a, b bool) bool { return a && b })
}

// Union returns the DFA for L(d) ∪ L(o).
func (d *DFA) Union(o *DFA) *DFA {
	return d.product(o, func(a, b bool) bool { return a || b })
}

// FromStrings builds the minimal DFA accepting exactly the given label
// sequences over the alphabet (extended with any symbols the strings
// use).
func FromStrings(words [][]string, alphabet []string) *DFA {
	syms := extend(alphabet, words...)
	index := indexOf(syms)
	pos := make([][]int32, len(words))
	for i, w := range words {
		for _, s := range w {
			pos[i] = append(pos[i], int32(index[s]))
		}
	}
	return fromPositions(syms, index, pos)
}

// FromPositions returns the minimal DFA, over d's alphabet and symbol
// index, that accepts exactly words, each a sequence of positions in
// d.Alphabet. The words need not be sorted or distinct. Trimming d to
// the finite set of words it accepts this way yields the automaton
// d.Intersect would with any automaton accepting exactly them, state
// numbering included.
func (d *DFA) FromPositions(words [][]int32) *DFA {
	return fromPositions(d.Alphabet, d.symIndex, words)
}

// fromPositions lays the words' trie out as minimal's input in
// breadth-first discovery order, symbols in alphabet order, with the
// dead state numbered where the first missing edge reaches it: the
// order product and subset number their states in. In sorted words a
// trie node's words are one run, the word equal to its prefix first and
// its children's runs after it in symbol order, so a state is a run.
func fromPositions(alphabet []string, index map[string]int, words [][]int32) *DFA {
	if !slices.IsSortedFunc(words, slices.Compare) {
		words = slices.Clone(words)
		slices.SortFunc(words, slices.Compare)
	}
	// The state count: the root, the dead state, and each word's steps
	// past the prefix it shares with the word before it.
	n := 2
	for i, w := range words {
		l := 0
		for i > 0 && l < min(len(w), len(words[i-1])) && w[l] == words[i-1][l] {
			l++
		}
		n += len(w) - l
	}
	k := len(alphabet)
	type run struct{ lo, hi, depth int }
	runs := make([]run, 1, n)
	runs[0] = run{0, len(words), 0}
	acc := make([]bool, 0, n)
	trans := make([]int32, 0, n*k)
	dead := int32(-1)
	for i := 0; i < len(runs); i++ {
		lo, hi, d := runs[i].lo, runs[i].hi, runs[i].depth
		accept := false
		for lo < hi && len(words[lo]) == d {
			accept = true
			lo++
		}
		acc = append(acc, accept)
		for s := int32(0); s < int32(k); s++ {
			if lo < hi && words[lo][d] == s {
				j := lo + 1
				for j < hi && words[j][d] == s {
					j++
				}
				trans = append(trans, int32(len(runs)))
				runs = append(runs, run{lo, j, d + 1})
				lo = j
				continue
			}
			if dead < 0 {
				dead = int32(len(runs))
				runs = append(runs, run{})
			}
			trans = append(trans, dead)
		}
	}
	return minimal(alphabet, index, 0, acc, trans)
}

// RightQuotient returns the DFA for { w : ∃a ∈ Σ, w·a ∈ L(d) } — the
// language of d with the final symbol stripped. XLearner uses it to
// split a learned path across a 1-labeled template edge: the parent
// fragment binds the quotient path, the leaf binds the last step.
func (d *DFA) RightQuotient() *DFA {
	start, states, trans := d.compact()
	acc := make([]bool, len(states))
	for i, q := range states {
		for _, nx := range d.Trans[q] {
			if d.Accept[nx] {
				acc[i] = true
				break
			}
		}
	}
	return minimal(d.Alphabet, d.symIndex, start, acc, trans)
}

// LastSymbols returns the sorted set of symbols that can end an
// accepted string: { a : ∃ reachable q, δ(q,a) ∈ F }.
func (d *DFA) LastSymbols() []string {
	_, states, _ := d.compact()
	var out []string
	for s, sym := range d.Alphabet {
		for _, q := range states {
			if d.Accept[d.Trans[q][s]] {
				out = append(out, sym)
				break
			}
		}
	}
	return out
}

// Dot renders the DFA in Graphviz dot syntax (for debugging and docs).
func (d *DFA) Dot() string {
	var b strings.Builder
	b.WriteString("digraph dfa {\n  rankdir=LR;\n")
	for q := 0; q < d.NumStates(); q++ {
		shape := "circle"
		if d.Accept[q] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  q%d [shape=%s];\n", q, shape)
	}
	fmt.Fprintf(&b, "  start [shape=point]; start -> q%d;\n", d.Start)
	for q := 0; q < d.NumStates(); q++ {
		// Group symbols by target for readability.
		byTarget := map[int][]string{}
		for s, nx := range d.Trans[q] {
			byTarget[nx] = append(byTarget[nx], d.Alphabet[s])
		}
		targets := make([]int, 0, len(byTarget))
		for t := range byTarget {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			fmt.Fprintf(&b, "  q%d -> q%d [label=%q];\n", q, t, strings.Join(byTarget[t], ","))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
