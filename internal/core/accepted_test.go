package core

import (
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// TestAcceptedPaths: stepping transition rows on the instance paths'
// alphabet positions selects exactly the paths DFA.Accepts does, and an
// automaton over another alphabet panics instead of reading the wrong
// rows.
func TestAcceptedPaths(t *testing.T) {
	doc := xmldoc.MustParse(`<lib>
	  <book id="1"><title>A</title><author>X</author></book>
	  <book><title>B</title></book>
	  <mag><title>C</title><name>D</name></mag>
	</lib>`)
	eng := NewEngine(doc, nil, DefaultOptions())
	for _, src := range []string{"/lib/book/title", "//title", "/lib/*", "/lib/(book|mag)//*", "/lib/title"} {
		d := pathre.Compile(pathre.MustParsePath(src), eng.alphabet)
		var want []int32
		for i := range eng.paths {
			if d.Accepts(pathLabels(eng, i)) {
				want = append(want, int32(i))
			}
		}
		got := eng.acceptedPaths(nil, d)
		if len(got) != len(want) {
			t.Fatalf("%s: accepted paths %v, Accepts selects %v", src, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: accepted paths %v, Accepts selects %v", src, got, want)
			}
		}
	}

	// As many symbols as the engine's alphabet, so the rows are in range
	// and only the alphabet check can catch the mismatch.
	alpha := append([]string{"zz"}, eng.alphabet[1:]...)
	foreign := pathre.Compile(pathre.MustParsePath("/lib/book"), alpha)
	defer func() {
		if recover() == nil {
			t.Fatal("acceptedPaths ran an automaton over a foreign alphabet")
		}
	}()
	eng.acceptedPaths(nil, foreign)
}
