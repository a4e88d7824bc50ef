package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestSharedPathDFARace: every evaluator adopting a shared index runs
// an expression on the one DFA the index compiled for it
// (Index.PathDFA), and every engine over the index steps automata on
// the index's root-path table. Eight goroutines, each with its own
// engine and evaluator over one index, run one shared DFA through the
// evaluator's root-path scan (PathNodes from the document node) and
// through acceptedPaths at once, and render it; under -race this pins
// that neither scan writes the automaton or the path table, and every
// goroutine must get the serial results.
func TestSharedPathDFARace(t *testing.T) {
	doc := xmldoc.MustParse(`<site><regions>
	  <africa><item id="a1"><name>x</name></item></africa>
	  <europe><item id="e1"><name>y</name><payment>cash</payment></item><item id="e2"/></europe>
	</regions><people><person id="p1"><name>z</name></person></people></site>`)
	ix := xq.NewIndex(doc)
	expr := pathre.MustParsePath("/site/regions/*/item")
	shared := ix.PathDFA(expr)
	if ix.PathDFA(expr) != shared {
		t.Fatal("PathDFA compiled the expression twice")
	}
	opts := DefaultOptions()
	opts.SharedIndex = ix
	serial := NewEngine(doc, nil, opts)
	wantNodes := serial.eval.PathNodes(nil, expr)
	wantPaths := serial.acceptedPaths(nil, shared)
	want := pathre.String(pathre.FromDFA(shared))
	if len(wantNodes) != 3 || len(wantPaths) != 2 {
		t.Fatalf("serial scans found %d nodes on %d paths, want 3 on 2", len(wantNodes), len(wantPaths))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(doc, nil, opts)
			nodes := e.eval.PathNodes(nil, expr)
			paths := e.acceptedPaths(nil, shared)
			got := pathre.String(pathre.FromDFA(shared))
			if !slices.Equal(nodes, wantNodes) || !slices.Equal(paths, wantPaths) || got != want {
				t.Errorf("goroutine %d: %d nodes, paths %v, %q; serial %d nodes, paths %v, %q",
					g, len(nodes), paths, got, len(wantNodes), wantPaths, want)
			}
		}()
	}
	wg.Wait()
}
