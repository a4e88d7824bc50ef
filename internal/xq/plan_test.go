package xq

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/must"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// planDoc exercises every operand shape the compiler lowers: chained
// From bindings, relay joins above the index threshold, multipliers,
// and rebound variable names.
func planDoc() *xmldoc.Document {
	var b strings.Builder
	b.WriteString(`<r><items>`)
	for i := 1; i <= 6; i++ {
		b.WriteString(`<item key="k` + strconv.Itoa(i) + `"><price>` + strconv.Itoa(i*10) + `</price><tag>t</tag></item>`)
	}
	b.WriteString(`</items><ppl>`)
	for i := 1; i <= relayIndexMinSize+3; i++ {
		b.WriteString(`<p><pid>k` + strconv.Itoa(i) + `</pid></p>`)
	}
	b.WriteString(`</ppl></r>`)
	return xmldoc.MustParse(b.String())
}

// checkCompiledVsNaive compares the compiled and interpreted extents of
// every bound variable, unpinned and pinned.
func checkCompiledVsNaive(t *testing.T, doc *xmldoc.Document, src string) {
	t.Helper()
	tree := MustParseQuery(src)
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	comp := NewEvaluator(doc)
	ctx := context.Background()
	for _, n := range tree.Nodes() {
		if n.Var == "" {
			continue
		}
		want := must.Must(naive.Extent(ctx, tree, n, nil))
		got := must.Must(comp.Extent(ctx, tree, n, nil))
		if !nodesEqual(want, got) {
			t.Errorf("%s: extent($%s) compiled %d nodes != naive %d", src, n.Var, len(got), len(want))
		}
		pins := []Env{{n.Var: doc.DocNode()}}
		if len(want) > 0 {
			pins = append(pins, Env{n.Var: want[0]})
		}
		for _, pin := range pins {
			want := must.Must(naive.Extent(ctx, tree, n, pin))
			got := must.Must(comp.Extent(ctx, tree, n, pin))
			if !nodesEqual(want, got) {
				t.Errorf("%s: pinned extent($%s) compiled %d nodes != naive %d", src, n.Var, len(got), len(want))
			}
		}
	}
}

func nodesEqual(a, b []*xmldoc.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompiledExtentMatchesNaive(t *testing.T) {
	doc := planDoc()
	for _, src := range []string{
		`for $i in /r/items/item return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) > 30 return <o>$i</o>`,
		`for $i in /r/items/item where data($i/@key) = "k3" return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) * 0.5 >= 20 return <o>$i</o>`,
		`for $i in /r/items/item where not(empty(data($i/tag))) return <o>$i</o>`,
		`for $i in /r/items/item where exists(data($i/nosuch)) return <o>$i</o>`,
		// Relay above the join-index threshold, document-rooted.
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) return <o>$i</o>`,
		// Relay anchored at an outer variable.
		`for $i in /r/items/item where some $w in $i/tag satisfies (data($w) = "t") return <o>$i</o>`,
		// Chained From binding with a predicate at each level.
		`for $i in /r/items/item where data($i/price) > 10 return <o>{for $j in $i/price where data($j) < 60 return $j}</o>`,
		// Rebound name: inner $i shadows the outer one.
		`for $i in /r/items return <o>{for $i in $i/item return $i}</o>`,
		// Positional steps through a simple-path condition target.
		`for $i in /r/items/item where data($i/price[1]) > 0 return <o>$i</o>`,
	} {
		checkCompiledVsNaive(t, doc, src)
	}
}

// TestCompiledDeadChain: a From variable with no visible binding
// compiles to a dead plan whose extent is empty, matching the
// interpreter's nil-lookup behavior.
func TestCompiledDeadChain(t *testing.T) {
	doc := planDoc()
	inner := &Node{Var: "j", From: "ghost", Path: pathre.MustParsePath("price"),
		Ret: RText{Value: "x"}}
	root := &Node{Var: "i", Path: pathre.MustParsePath("/r/items/item"),
		Children: []*Node{inner}, Ret: RElem{Tag: "o"}}
	tree := NewTree(root)
	comp := NewEvaluator(doc)
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	ctx := context.Background()
	want := must.Must(naive.Extent(ctx, tree, inner, nil))
	got := must.Must(comp.Extent(ctx, tree, inner, nil))
	if len(want) != 0 || len(got) != 0 {
		t.Fatalf("dead chain extents: naive %d, compiled %d, want 0/0", len(want), len(got))
	}
}

// TestPlanCacheCounters pins the Plan counter semantics: first extent
// compiles (miss), repeats reuse (hits) — once the memo is bypassed by
// distinct pins — and SetPlanCompilation(false) stops both.
func TestPlanCacheCounters(t *testing.T) {
	doc := planDoc()
	tree := MustParseQuery(`for $i in /r/items/item where data($i/price) > 30 return <o>$i</o>`)
	n := tree.VarNode("i")
	ev := NewEvaluator(doc)
	ctx := context.Background()
	ext := must.Must(ev.Extent(ctx, tree, n, nil))
	if got := ev.CacheStats().Plan; got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("after first extent: Plan = %+v, want 1 miss", got)
	}
	// Distinct pins bypass the extent memo and re-enter the executor.
	for _, m := range ext {
		must.Must(ev.Extent(ctx, tree, n, Env{"i": m}))
	}
	st := ev.CacheStats()
	if st.Plan.Misses != 1 || st.Plan.Hits != uint64(len(ext)) {
		t.Fatalf("after pinned extents: Plan = %+v, want 1 miss / %d hits", st.Plan, len(ext))
	}
	if st.Arena.Hits == 0 {
		t.Fatalf("Arena = %+v, want reuse hits after warmup", st.Arena)
	}
	off := NewEvaluator(doc)
	off.SetPlanCompilation(false)
	must.Must(off.Extent(ctx, tree, n, nil))
	if got := off.CacheStats().Plan; got.Hits+got.Misses != 0 {
		t.Fatalf("compilation off: Plan = %+v, want untouched", got)
	}
}

// TestResultRunsOnCompiledPlans: result construction lists bindings
// through compiled plans — each bound variable compiles once, with no
// Extent call in between — and serializes exactly as the naive
// interpreter; with plan compilation off nothing compiles.
func TestResultRunsOnCompiledPlans(t *testing.T) {
	doc := planDoc()
	tree := MustParseQuery(`for $i in /r/items/item ` +
		`where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) ` +
		`order by $i/price descending ` +
		`return <o>{for $j in $i/price where data($j) > 20 return $j}</o>`)
	ctx := context.Background()
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	want := must.Must(tree.XQueryResultString(ctx, naive))
	comp := NewEvaluator(doc)
	if got := must.Must(tree.XQueryResultString(ctx, comp)); got != want {
		t.Fatalf("compiled result:\n%s\nnaive:\n%s", got, want)
	}
	if st := comp.CacheStats().Plan; st.Misses != 2 || st.Hits == 0 {
		t.Fatalf("Plan = %+v, want 2 compiles and reuse across $i's bindings", st)
	}
	off := NewEvaluator(doc)
	off.SetPlanCompilation(false)
	if got := must.Must(tree.XQueryResultString(ctx, off)); got != want {
		t.Fatalf("plan-off result:\n%s\nnaive:\n%s", got, want)
	}
	if st := off.CacheStats().Plan; st.Hits+st.Misses != 0 {
		t.Fatalf("compilation off: Plan = %+v, want untouched", st)
	}
}

// TestTreePlanSharedAcrossEvaluators: a bundle-style shared plan set is
// adopted (hit on first use, no local compile), ignored for foreign
// documents, and produces identical extents.
func TestTreePlanSharedAcrossEvaluators(t *testing.T) {
	doc := planDoc()
	tree := MustParseQuery(`for $i in /r/items/item where data($i/price) > 30 return <o>$i</o>`)
	n := tree.VarNode("i")
	ix := NewIndex(doc)
	tp := NewTreePlan(ix, tree)
	if tp.NumPlans() != 1 {
		t.Fatalf("NumPlans = %d, want 1", tp.NumPlans())
	}
	if tp.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes must be positive")
	}
	ctx := context.Background()
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	want := must.Must(naive.Extent(ctx, tree, n, nil))
	for round := 0; round < 2; round++ {
		ev := NewEvaluatorWithIndex(ix)
		ev.AdoptPlan(tp)
		got := must.Must(ev.Extent(ctx, tree, n, nil))
		if !nodesEqual(want, got) {
			t.Fatalf("shared-plan extent: %d nodes != naive %d", len(got), len(want))
		}
		st := ev.CacheStats()
		if st.Plan.Hits != 1 || st.Plan.Misses != 0 {
			t.Fatalf("shared plan: Plan = %+v, want 1 hit / 0 misses", st.Plan)
		}
	}
	// A plan compiled for another document must not be adopted.
	other := NewEvaluator(xmldoc.MustParse(`<r/>`))
	other.AdoptPlan(tp)
	if other.sharedPlan != nil {
		t.Fatal("foreign-document plan was adopted")
	}
}

// TestColumnarPathWalkMatchesPointerWalk drives the columnar DFA walk
// (non-root start) against the pointer walk on descendant-or-self
// style expressions, including attribute acceptance.
func TestColumnarPathWalkMatchesPointerWalk(t *testing.T) {
	doc := planDoc()
	start := doc.NodesWithLabel("items")[0]
	for _, expr := range []string{"item/price", "item/@key", "item//tag", "(item|nosuch)/price"} {
		p := pathre.MustParsePath(expr)
		comp := NewEvaluator(doc) // index present → columnar walk
		comp.Index()
		naive := NewEvaluator(doc)
		naive.SetAcceleration(false)
		want := naive.PathNodes(start, p)
		got := comp.PathNodes(start, p)
		if !nodesEqual(want, got) {
			t.Errorf("PathNodes(items, %s): columnar %d nodes != naive %d", expr, len(got), len(want))
		}
	}
}

// TestPlanCacheEviction overflows the bounded planFor memo and checks
// that eviction is invisible: the memo never exceeds its bound, trees
// whose plans were dropped recompile into the reset compile arena, and
// every extent — before and after the reset — still matches the
// interpreter.
func TestPlanCacheEviction(t *testing.T) {
	defer func(old int) { planCacheMax = old }(planCacheMax)
	planCacheMax = 4

	doc := planDoc()
	ev := NewEvaluator(doc)
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	ctx := context.Background()
	var trees []*Tree
	for i := 0; i < 6; i++ {
		src := `for $i in /r/items/item where data($i/price) > ` + strconv.Itoa(i*10) + ` return <o>$i</o>`
		trees = append(trees, MustParseQuery(src))
	}
	check := func(sweep int, tree *Tree, pin Env) {
		t.Helper()
		n := tree.VarNode("i")
		got := must.Must(ev.Extent(ctx, tree, n, pin))
		want := must.Must(naive.Extent(ctx, tree, n, pin))
		if !nodesEqual(got, want) {
			t.Fatalf("sweep %d: extent mismatch after eviction: compiled %d nodes != naive %d", sweep, len(got), len(want))
		}
		if len(ev.plans) > planCacheMax {
			t.Fatalf("plan cache grew past its bound: %d > %d", len(ev.plans), planCacheMax)
		}
	}
	// Sweep 1 compiles six distinct trees against a four-entry cache, so
	// eviction fires mid-sweep; sweep 2 pins the variable, bypassing the
	// extent memo and forcing planFor lookups for trees whose plans were
	// dropped — the recompile-into-reset-arena path.
	for _, tree := range trees {
		check(1, tree, nil)
	}
	for _, tree := range trees {
		check(2, tree, Env{"i": doc.DocNode()})
	}
	if misses := ev.CacheStats().Plan.Misses; misses <= uint64(planCacheMax) {
		t.Fatalf("Plan.Misses = %d, want more than the cache bound %d (eviction never fired?)", misses, planCacheMax)
	}
}
