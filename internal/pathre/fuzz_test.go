package pathre

import (
	"strconv"
	"testing"
)

// pathSeeds seed FuzzParsePath and FuzzCompile.
var pathSeeds = []string{
	"/site/regions/(europe|africa)/item",
	"/site//name", "//keyword", "/a/*/c", "/a/b?", "/a/(b/c|d)+/e",
	"a", "((((", "|||", "/a//", "@x/@y", "/a/(b|)/c",
	"/site/people/person/@id", "/a/(b|c)*/d//e?", "0/(//0)",
}

// FuzzParsePath: the parser never panics, and anything it accepts
// renders to a string that reparses to the same language.
func FuzzParsePath(f *testing.F) {
	for _, seed := range pathSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParsePath(src)
		if err != nil {
			return
		}
		rendered := String(e)
		e2, err := ParsePath(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not reparse: %v", src, rendered, err)
		}
		alpha := Labels(e)
		if len(alpha) == 0 {
			alpha = []string{"z"}
		}
		if w, diff := Compile(e, alpha).Distinguish(Compile(e2, alpha)); diff {
			t.Fatalf("%q: render/reparse changed language, witness %v", src, w)
		}
	})
}

// decodeDFA turns fuzz bytes into a complete DFA: a state count
// (1–40), an alphabet size (1–80), the start state, one acceptance
// byte per state, then one successor byte per transition. Missing
// bytes read as zero.
func decodeDFA(data []byte) *DFA {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, k := 1+next()%40, 1+next()%80
	alpha := make([]string, k)
	for i := range alpha {
		alpha[i] = "s" + strconv.Itoa(i)
	}
	d := NewDFA(alpha, n)
	d.Start = next() % n
	for q := range d.Accept {
		d.Accept[q] = next()&1 == 1
	}
	for q := range d.Trans {
		for s := range d.Trans[q] {
			d.Trans[q][s] = next() % n
		}
	}
	return d
}

// FuzzMinimize: on any complete DFA the integer Minimize equals the
// reference kernel state for state, keeps the language, and is a fixed
// point of itself.
func FuzzMinimize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 1, 0, 1, 2, 2})
	f.Add([]byte{5, 2, 4, 1, 1, 1, 1, 1, 1, 2, 3, 4, 0, 0, 9, 9, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeDFA(data)
		m := d.Minimize()
		sameDFA(t, "Minimize", m, refMinimize(d))
		if w, diff := d.Distinguish(m); diff {
			t.Fatalf("Minimize changed the language, witness %v", w)
		}
		sameDFA(t, "Minimize twice", m.Minimize(), m)
	})
}

// FuzzCompile: for any expression the parser accepts, over an alphabet
// of pad padding labels plus every second label the expression
// mentions (the rest missing from it), Compile's subset table over
// symbol classes equals refSubset's entry for entry.
func FuzzCompile(f *testing.F) {
	for i, seed := range pathSeeds {
		f.Add(seed, uint8(7*i))
	}
	f.Fuzz(func(t *testing.T, src string, pad uint8) {
		e, err := ParsePath(src)
		if err != nil {
			return
		}
		var alpha []string
		for i, l := range Labels(e) {
			if i%2 == 0 {
				alpha = append(alpha, l)
			}
		}
		for i := 0; i < int(pad%80); i++ {
			alpha = append(alpha, "pad"+strconv.Itoa(i))
		}
		checkCompile(t, e, alpha)
	})
}
