//go:build !race

package core

import (
	"context"
	"testing"

	"repro/internal/xmldoc"
)

// TestReducedWaveAllocs pins the steady-state allocation cost of the
// learner's dominant query path: a query set whose every word rule R1
// or R2 answers locally. Answers are stored in the fragment's ID-indexed
// slice, so once that slice covers the Words, a wave allocates only the
// answer slice it returns — nothing per query. (Build-tagged out under
// -race: the detector's instrumentation allocates.)
func TestReducedWaveAllocs(t *testing.T) {
	doc := xmldoc.MustParse(`<lib>
	  <book><title>A</title></book>
	  <mag><name>C</name></mag>
	  <junk><label>E</label></junk>
	</lib>`)
	eng := NewEngine(doc, nil, DefaultOptions())
	example := doc.Root().ChildElementsNamed("book")[0].ChildElementsNamed("title")[0]
	var fs FragmentStats
	p := newPLearner(context.Background(), eng, FragmentRef{Var: "x", AnchorVar: "x"},
		map[string]*xmldoc.Node{}, map[string]*xmldoc.Node{}, example, 0, &fs)
	p.bind()
	defer p.unbind()

	// Every word of length <= 3 over the alphabet except the dropped
	// example's path: none ending in "title" has an instance node (R1),
	// and every other one ends in a tag other than the example's (R2).
	var words [][]string
	var ids []int32
	var extend func(w []string)
	extend = func(w []string) {
		if len(w) > 0 && !(len(w) == 3 && w[0] == "lib" && w[1] == "book" && w[2] == "title") {
			word := append([]string(nil), w...)
			words = append(words, word)
			ids = append(ids, p.words.Intern(word))
		}
		if len(w) < 3 {
			for _, a := range eng.alphabet {
				extend(append(w, a))
			}
		}
	}
	extend(nil)
	ta := teacherAdapter{p}
	wave := func() {
		for _, id := range ids {
			if int(id) < len(p.ans) {
				p.ans[id] = pans{} // forget the answers so the rules run again
			}
		}
		ans, err := ta.MemberBatchIDs(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range ans {
			if v {
				t.Fatalf("%v answered Yes, want an R1/R2 No", words[i])
			}
		}
	}
	wave() // sizes the answer slice
	const runs = 50
	before := fs.ReducedTotal
	allocs := testing.AllocsPerRun(runs, wave)
	if got, want := fs.ReducedTotal-before, (runs+1)*len(words); got != want {
		t.Fatalf("%d reduced answers over %d waves of %d words, want %d", got, runs+1, len(words), want)
	}
	if fs.MQ != 0 {
		t.Fatalf("%d queries reached the teacher, want 0", fs.MQ)
	}
	if allocs > 1 {
		t.Errorf("a wave of %d reduced queries allocates %.1f objects, want <= 1 (the answer slice)",
			len(words), allocs)
	}
}
