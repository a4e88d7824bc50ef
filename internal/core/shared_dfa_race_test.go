package core_test

import (
	"sync"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestSharedRealizedDFARace: every session on a bundle shares the
// index's RealizedPathsDFA, and automata derived from it share its
// alphabet and symbol index. Eight goroutines intersect, run and
// render against the one shared automaton at once; under -race this
// pins that no DFA operation writes shared state (the symbol index is
// built by every constructor, never lazily on first lookup), and every
// goroutine must get the serial results.
func TestSharedRealizedDFARace(t *testing.T) {
	doc, err := xmldoc.ParseString(sourceXML)
	if err != nil {
		t.Fatal(err)
	}
	realized := xq.NewIndex(doc).RealizedPathsDFA()
	learned := pathre.Compile(pathre.MustParsePath("/site/regions/*/item"), realized.Alphabet)
	var paths [][]string
	doc.Walk(func(n *xmldoc.Node) bool {
		if n.Kind == xmldoc.ElementNode || n.Kind == xmldoc.AttributeNode {
			paths = append(paths, n.Path())
		}
		return true
	})
	serial := learned.Intersect(realized)
	want := pathre.String(pathre.FromDFA(serial))
	wantAccepted := 0
	for _, p := range paths {
		if serial.Accepts(p) {
			wantAccepted++
		}
	}

	var wg sync.WaitGroup
	got := make([]string, 8)
	accepted := make([]int, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			trimmed := learned.Intersect(realized)
			for _, p := range paths {
				if !realized.Accepts(p) {
					t.Errorf("goroutine %d: realized path %v rejected", g, p)
				}
				if trimmed.Accepts(p) {
					accepted[g]++
				}
			}
			got[g] = pathre.String(pathre.FromDFA(trimmed))
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != want || accepted[g] != wantAccepted {
			t.Errorf("goroutine %d: %q accepting %d paths, serial %q accepting %d", g, got[g], accepted[g], want, wantAccepted)
		}
	}
}
