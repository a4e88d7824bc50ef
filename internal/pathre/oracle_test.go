package pathre

import (
	"math/rand"
	"strconv"
	"testing"
)

// The reference kernels: the string-signature Moore refinement and the
// map-keyed product construction the integer kernels replaced, kept
// verbatim as the oracle the property and fuzz tests compare against.
// Each derived operation mirrors its former definition on top of them,
// so "matches the reference" means state for state: same Start, same
// Accept, same Trans.

func refMinimize(d *DFA) *DFA {
	reach := d.reachable()
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

// TestCompileMatchesReference: Compile (whose subset construction builds
// straight into the flat table) and FromStrings emit automata the
// reference minimization leaves unchanged, state numbering included.
func TestCompileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		e := randomExpr(r, 4)
		got := Compile(e, alpha)
		sameDFA(t, "Compile", got, refMinimize(got))
		fs := FromStrings(got.EnumerateAccepted(4, 20), alpha)
		sameDFA(t, "FromStrings", fs, refMinimize(fs))
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

// BenchmarkTrimIntersect is the engine's trimDFA shape: a small learned
// hypothesis intersected with the realized-paths automaton of a
// document (a trie of 150 root paths over 77 labels).
func BenchmarkTrimIntersect(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	alpha := make([]string, 77)
	for i := range alpha {
		alpha[i] = "l" + strconv.Itoa(i)
	}
	var words [][]string
	for len(words) < 150 {
		w := []string{"l0"}
		for n := 1 + r.Intn(5); n > 0; n-- {
			w = append(w, alpha[r.Intn(12)])
		}
		words = append(words, w)
	}
	realized := FromStrings(words, alpha)
	hyp := Compile(MustParsePath("/l0//(l1|l2)/*"), alpha)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hyp.Intersect(realized)
	}
}
