package pathre

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// The reference kernels: the string-signature Moore refinement and the
// map-keyed product construction the integer kernels replaced, kept
// verbatim as the oracle the property and fuzz tests compare against.
// Each derived operation mirrors its former definition on top of them,
// so "matches the reference" means state for state: same Start, same
// Accept, same Trans.

// reachable marks the states reachable from d's start.
func reachable(d *DFA) []bool {
	seen := make([]bool, d.NumStates())
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nx := range d.Trans[q] {
			if !seen[nx] {
				seen[nx] = true
				stack = append(stack, nx)
			}
		}
	}
	return seen
}

func refMinimize(d *DFA) *DFA {
	reach := reachable(d)
	idx := make([]int, d.NumStates())
	var states []int
	for q := 0; q < d.NumStates(); q++ {
		if reach[q] {
			idx[q] = len(states)
			states = append(states, q)
		} else {
			idx[q] = -1
		}
	}
	n := len(states)
	part := make([]int, n)
	for i, q := range states {
		if d.Accept[q] {
			part[i] = 1
		}
	}
	numBlocks := 2
	buf := make([]byte, 0, 64)
	for {
		blockOf := map[string]int{}
		next := make([]int, n)
		for i, q := range states {
			buf = strconv.AppendInt(buf[:0], int64(part[i]), 10)
			for _, nx := range d.Trans[q] {
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, int64(part[idx[nx]]), 10)
			}
			b, ok := blockOf[string(buf)]
			if !ok {
				b = len(blockOf)
				blockOf[string(buf)] = b
			}
			next[i] = b
		}
		if len(blockOf) == numBlocks {
			part = next
			break
		}
		numBlocks = len(blockOf)
		part = next
	}
	out := NewDFA(d.Alphabet, numBlocks)
	seenBlock := make([]bool, numBlocks)
	for i, q := range states {
		b := part[i]
		if seenBlock[b] {
			continue
		}
		seenBlock[b] = true
		out.Accept[b] = d.Accept[q]
		for s, nx := range d.Trans[q] {
			out.Trans[b][s] = part[idx[nx]]
		}
	}
	out.Start = part[idx[d.Start]]
	return out
}

func refProduct(d, o *DFA, accept func(a, b bool) bool) *DFA {
	type pair struct{ a, b int }
	index := map[pair]int{}
	var states []pair
	add := func(p pair) int {
		if i, ok := index[p]; ok {
			return i
		}
		index[p] = len(states)
		states = append(states, p)
		return len(states) - 1
	}
	add(pair{d.Start, o.Start})
	var rows [][]int
	for i := 0; i < len(states); i++ {
		p := states[i]
		r := make([]int, len(d.Alphabet))
		for s := range d.Alphabet {
			r[s] = add(pair{d.Trans[p.a][s], o.Trans[p.b][s]})
		}
		rows = append(rows, r)
	}
	out := NewDFA(d.Alphabet, len(states))
	for i, p := range states {
		out.Accept[i] = accept(d.Accept[p.a], o.Accept[p.b])
		copy(out.Trans[i], rows[i])
	}
	return refMinimize(out)
}

func refComplement(d *DFA) *DFA {
	out := NewDFA(d.Alphabet, d.NumStates())
	out.Start = d.Start
	for q := 0; q < d.NumStates(); q++ {
		out.Accept[q] = !d.Accept[q]
		copy(out.Trans[q], d.Trans[q])
	}
	return refMinimize(out)
}

func refRightQuotient(d *DFA) *DFA {
	out := NewDFA(d.Alphabet, d.NumStates())
	out.Start = d.Start
	for q := 0; q < d.NumStates(); q++ {
		copy(out.Trans[q], d.Trans[q])
		for _, nx := range d.Trans[q] {
			if d.Accept[nx] {
				out.Accept[q] = true
				break
			}
		}
	}
	return refMinimize(out)
}

// refSubset is the subset construction as it was before it moved
// symbol classes: one move per symbol over map-keyed state sets.
func refSubset(m *nfa, k int) (acc []bool, trans []int32) {
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

// refTrim is the trim the engine made before FromPositions: the
// automaton intersected with the automaton of every candidate word.
func refTrim(d *DFA, words [][]int32) *DFA {
	labels := make([][]string, len(words))
	for i, w := range words {
		for _, a := range w {
			labels[i] = append(labels[i], d.Alphabet[a])
		}
	}
	return d.Intersect(FromStrings(labels, d.Alphabet))
}

// sameDFA fails unless got and want agree state for state.
func sameDFA(t *testing.T, op string, got, want *DFA) {
	t.Helper()
	if got.Start != want.Start || len(got.Accept) != len(want.Accept) || len(got.Alphabet) != len(want.Alphabet) {
		t.Fatalf("%s: start/states/symbols %d/%d/%d, reference %d/%d/%d", op,
			got.Start, got.NumStates(), len(got.Alphabet), want.Start, want.NumStates(), len(want.Alphabet))
	}
	for i, s := range want.Alphabet {
		if got.Alphabet[i] != s {
			t.Fatalf("%s: alphabet[%d] = %q, reference %q", op, i, got.Alphabet[i], s)
		}
	}
	for q := range want.Accept {
		if got.Accept[q] != want.Accept[q] {
			t.Fatalf("%s: Accept[%d] = %v, reference %v", op, q, got.Accept[q], want.Accept[q])
		}
		for s := range want.Trans[q] {
			if got.Trans[q][s] != want.Trans[q][s] {
				t.Fatalf("%s: Trans[%d][%d] = %d, reference %d", op, q, s, got.Trans[q][s], want.Trans[q][s])
			}
		}
	}
}

// randDFA builds a random complete DFA with n states over an alphabet
// of k symbols. acceptMode 0 draws acceptance at random, 1 makes every
// state accepting, 2 none. Random successors leave some states
// unreachable; sinkBias routes that share of edges into the last two
// states, so the automata also have sinks and mergeable blocks, and
// the last dead states (at most n-1) become rejecting self-loops.
func randDFA(r *rand.Rand, n, k, acceptMode int, sinkBias float64, dead int) *DFA {
	alpha := make([]string, k)
	for i := range alpha {
		alpha[i] = "s" + strconv.Itoa(i)
	}
	d := NewDFA(alpha, n)
	d.Start = r.Intn(n)
	for q := 0; q < n; q++ {
		switch acceptMode {
		case 0:
			d.Accept[q] = r.Intn(3) == 0
		case 1:
			d.Accept[q] = true
		}
		for s := 0; s < k; s++ {
			if r.Float64() < sinkBias {
				d.Trans[q][s] = n - 1 - r.Intn(min(n, 2))
			} else {
				d.Trans[q][s] = r.Intn(n)
			}
		}
	}
	for q := max(1, n-dead); q < n; q++ {
		d.Accept[q] = false
		for s := range d.Trans[q] {
			d.Trans[q][s] = q
		}
	}
	return d
}

// TestKernelsMatchReference property-tests the integer kernels against
// the reference on random complete DFAs: 1–40 states, 1–80 symbols,
// with unreachable states, all-accepting and all-rejecting automata,
// and with zero to two dead states on either side of a product.
func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	and := func(a, b bool) bool { return a && b }
	or := func(a, b bool) bool { return a || b }
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.Intn(80)
		mode := 0
		switch trial % 10 {
		case 8:
			mode = 1
		case 9:
			mode = 2
		}
		bias := r.Float64() * 0.9
		dead := r.Intn(3)
		if mode == 1 {
			dead = 0 // keep the all-accepting automata all-accepting
		}
		d := randDFA(r, 1+r.Intn(40), k, mode, bias, dead)
		o := randDFA(r, 1+r.Intn(40), k, r.Intn(3)*r.Intn(2), bias, r.Intn(3))

		sameDFA(t, "Minimize", d.Minimize(), refMinimize(d))
		sameDFA(t, "Complement", d.Complement(), refComplement(d))
		sameDFA(t, "RightQuotient", d.RightQuotient(), refRightQuotient(d))
		sameDFA(t, "Intersect", d.Intersect(o), refProduct(d, o, and))
		sameDFA(t, "Union", d.Union(o), refProduct(d, o, or))
	}
}

// checkCompile fails unless Compile's subset table for e over alphabet
// equals refSubset's entry for entry, and Compile's automaton is the
// reference minimization of that table, state numbering included.
func checkCompile(t *testing.T, e Expr, alphabet []string) {
	t.Helper()
	got := Compile(e, alphabet)
	m := &nfa{}
	f := build(m, e, got.symIndex)
	m.start, m.accept = f.in, f.out
	mentioned := make([]bool, len(got.Alphabet))
	for _, s := range Labels(e) {
		mentioned[got.symIndex[s]] = true
	}
	acc, trans := subset(m, mentioned)
	refAcc, refTrans := refSubset(m, len(got.Alphabet))
	if !slices.Equal(acc, refAcc) || !slices.Equal(trans, refTrans) {
		t.Fatalf("%s over %d symbols: subset table (%d states) differs from the reference's (%d states)",
			String(e), len(got.Alphabet), len(acc), len(refAcc))
	}
	table := NewDFA(got.Alphabet, len(refAcc))
	for q := range refAcc {
		table.Accept[q] = refAcc[q]
		for s := range table.Trans[q] {
			table.Trans[q][s] = int(refTrans[q*len(got.Alphabet)+s])
		}
	}
	sameDFA(t, "Compile "+String(e), got, refMinimize(table))
}

// paddedAlphabet returns n padding labels and each of a, b and c with
// probability keep, sorted. The expressions of randomExpr mention only
// a, b and c, so most labels are unmentioned, and a dropped one is a
// label the expression adds.
func paddedAlphabet(r *rand.Rand, n int, keep float64) []string {
	var alpha []string
	for _, l := range []string{"a", "b", "c"} {
		if r.Float64() < keep {
			alpha = append(alpha, l)
		}
	}
	for i := 0; i < n; i++ {
		alpha = append(alpha, "p"+strconv.Itoa(i))
	}
	sort.Strings(alpha)
	return alpha
}

// TestCompileMatchesReference: Compile's subset construction over
// symbol classes builds refSubset's table entry for entry, on alphabets
// of 4 to 80 labels that the expression mostly does not mention, with
// wildcards, // and labels missing from the alphabet; and FromStrings
// emits automata the reference minimization leaves unchanged (over 4
// labels, where enumerating accepted words stays small).
func TestCompileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		checkCompile(t, randomExpr(r, 1+r.Intn(4)), paddedAlphabet(r, 4+r.Intn(77), 0.7))
	}
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		fs := FromStrings(Compile(randomExpr(r, 4), alpha).EnumerateAccepted(4, 20), alpha)
		sameDFA(t, "FromStrings", fs, refMinimize(fs))
	}
	for _, src := range []string{"//a", "/a//b", "/*/a//*", "//*", "/a/(b|nosuch)//c"} {
		checkCompile(t, MustParsePath(src), paddedAlphabet(r, 60, 1))
	}
}

// TestFromPositionsMatchesIntersect: trimming a random automaton to
// the candidate words it accepts with FromPositions gives the product
// trim's automaton state for state, for words in any order and with
// repeats, and for pairs the RightQuotient of the trimmed automaton is
// FromPositions over the words with their last step dropped.
func TestFromPositionsMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(40)
		d := randDFA(r, 1+r.Intn(20), k, r.Intn(3)*r.Intn(2), r.Float64()*0.9, r.Intn(3))
		var words, accepted, dropped [][]int32
		for n := r.Intn(30); len(words) < n; {
			w := make([]int32, 1+r.Intn(6))
			for j := range w {
				w[j] = int32(r.Intn(k))
			}
			words = append(words, w)
			if r.Intn(4) == 0 {
				words = append(words, w)
			}
		}
		for _, w := range words {
			q := d.Start
			for _, a := range w {
				q = d.Trans[q][a]
			}
			if d.Accept[q] {
				accepted = append(accepted, w)
				dropped = append(dropped, w[:len(w)-1])
			}
		}
		r.Shuffle(len(accepted), func(i, j int) { accepted[i], accepted[j] = accepted[j], accepted[i] })
		ref := refTrim(d, words)
		sameDFA(t, "FromPositions", d.FromPositions(accepted), ref)
		sameDFA(t, "FromPositions of dropped", d.FromPositions(dropped), ref.RightQuotient())
	}
}

// TestDerivedShareAlphabet: derived automata share their operand's
// alphabet and symbol index instead of copying them.
func TestDerivedShareAlphabet(t *testing.T) {
	d := Compile(MustParsePath("/a/(b|c)*"), []string{"a", "b", "c"})
	for name, x := range map[string]*DFA{
		"Minimize": d.Minimize(), "Complement": d.Complement(), "RightQuotient": d.RightQuotient(),
		"Intersect": d.Intersect(d.Complement()), "Union": d.Union(d),
	} {
		if &x.Alphabet[0] != &d.Alphabet[0] {
			t.Errorf("%s copied the alphabet", name)
		}
		if x.SymIndex("b") != 1 || x.SymIndex("z") != -1 {
			t.Errorf("%s: SymIndex(b) = %d, SymIndex(z) = %d", name, x.SymIndex("b"), x.SymIndex("z"))
		}
	}
}

// trimSink keeps the benchmarked trims from being optimized away.
var trimSink *DFA

// trimBench is the engine's trim shape: a small learned hypothesis
// and the 150 root paths, over 77 labels, of a document.
func trimBench() (hyp *DFA, words [][]string) {
	r := rand.New(rand.NewSource(1))
	alpha := make([]string, 77)
	for i := range alpha {
		alpha[i] = "l" + strconv.Itoa(i)
	}
	for len(words) < 150 {
		w := []string{"l0"}
		for n := 1 + r.Intn(5); n > 0; n-- {
			w = append(w, alpha[r.Intn(12)])
		}
		words = append(words, w)
	}
	return Compile(MustParsePath("/l0//(l1|l2)/*"), alpha), words
}

// BenchmarkTrimIntersect is the trim as a product: the hypothesis
// intersected with the realized-paths automaton (a trie of the 150
// root paths).
func BenchmarkTrimIntersect(b *testing.B) {
	hyp, words := trimBench()
	realized := FromStrings(words, hyp.Alphabet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trimSink = hyp.Intersect(realized)
	}
}

// BenchmarkTrimFromPositions is the trim the engine makes: the root
// paths the hypothesis accepts, stepped on alphabet positions, laid out
// as a trie and minimized.
func BenchmarkTrimFromPositions(b *testing.B) {
	hyp, words := trimBench()
	var pos [][]int32
	for _, w := range words {
		p := make([]int32, len(w))
		for j, l := range w {
			p[j] = int32(hyp.SymIndex(l))
		}
		pos = append(pos, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var accepted [][]int32
		for _, w := range pos {
			q := hyp.Start
			for _, a := range w {
				q = hyp.Trans[q][a]
			}
			if hyp.Accept[q] {
				accepted = append(accepted, w)
			}
		}
		trimSink = hyp.FromPositions(accepted)
	}
}
