//go:build !race

package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestReducedWaveAllocs pins the steady-state allocation cost of the
// learner's dominant query path: a run of membership queries whose
// every word rule R1 or R2 answers locally. Answers are stored in the
// fragment's ID-indexed slice, so once that slice covers the Words, a
// run of queries allocates nothing. (Build-tagged out under -race: the
// detector's instrumentation allocates.)
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
	run := func() {
		for _, id := range ids {
			if int(id) < len(p.ans) {
				p.ans[id] = pans{} // forget the answers so the rules run again
			}
		}
		for i, id := range ids {
			v, err := ta.MemberID(id)
			if err != nil {
				t.Fatal(err)
			}
			if v {
				t.Fatalf("%v answered Yes, want an R1/R2 No", words[i])
			}
		}
	}
	run() // sizes the answer slice
	const runs = 50
	before := fs.ReducedTotal
	allocs := testing.AllocsPerRun(runs, run)
	if got, want := fs.ReducedTotal-before, (runs+1)*len(words); got != want {
		t.Fatalf("%d reduced answers over %d runs of %d words, want %d", got, runs+1, len(words), want)
	}
	if fs.MQ != 0 {
		t.Fatalf("%d queries reached the teacher, want 0", fs.MQ)
	}
	if allocs != 0 {
		t.Errorf("a run of %d reduced queries allocates %.1f objects, want 0", len(words), allocs)
	}
}

// TestHypothesisExtentAllocs pins the condition checks of the
// P-Learner's hypothesis extent: once the conjunction is compiled and
// its probe tables are built, a repeat extent allocates only the
// returned slice — nothing per candidate node, whatever the
// predicates (here a relay join answered by a class probe, a negated
// comparison and a scaled one).
func TestHypothesisExtentAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><age>%d</age></person>`, i, 20+i)
	}
	b.WriteString("</people><items>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `<item><seller person="p%d"/><price>%d</price></item>`, i%100, i)
	}
	b.WriteString("</items></site>")
	doc := xmldoc.MustParse(b.String())
	tree := xq.MustParseQuery(`for $x in /site/items/item where ` +
		`some $w in document()/site/people/person satisfies (data($w/@id) = data($x/seller/@person)) and ` +
		`not(data($x/price) = "7") and data($x/price) * 2 >= 10 return $x`)
	eng := NewEngine(doc, nil, DefaultOptions())
	items := doc.Root().ChildElementsNamed("items")[0].ChildElementsNamed("item")
	var fs FragmentStats
	p := newPLearner(context.Background(), eng, FragmentRef{Var: "x", AnchorVar: "x"},
		map[string]*xmldoc.Node{}, map[string]*xmldoc.Node{}, items[0], 0, &fs)
	p.clearner.conds = map[string]*xq.Pred{}
	p.clearner.changed()
	p.explicit = tree.VarNode("x").Where
	h := pathre.Compile(pathre.Seq("site", "items", "item"), eng.alphabet)
	// Sellers p0..p49 exist (items 0-49 and 100-149), prices 0-4 fail
	// the scaled test and item 7 the negated one.
	const want = 94
	if got := len(p.hypothesisExtent(h)); got != want {
		t.Fatalf("hypothesis extent has %d nodes, want %d", got, want)
	}
	allocs := testing.AllocsPerRun(50, func() { p.hypothesisExtent(h) })
	if allocs > 1 {
		t.Errorf("a warm hypothesis extent over %d candidates allocates %.1f objects, want <= 1 (the result)",
			len(items), allocs)
	}
}
