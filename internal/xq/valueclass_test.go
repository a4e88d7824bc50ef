package xq

import (
	"context"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/xmldoc"
)

// checkValueClasses checks doc's value classes against compareValues,
// the evaluator's equality:
//   - each node's class is the one valueClass looks up for its value,
//     so constants and scaled operands find the classes nodes are in;
//   - an independent grouping (numbers by Num, with -0 as 0; other
//     values by text; NaN alone) puts two nodes together iff they share
//     a class;
//   - and, pair by pair, two nodes share a class iff compareValues(OpEq)
//     holds for them: for every pair when stride is 0, else for each
//     node with the nodes 1..stride IDs after it.
func checkValueClasses(t testing.TB, doc *xmldoc.Document, stride int) {
	t.Helper()
	ix := NewIndex(doc)
	class := ix.valueClasses().class
	n := doc.NumNodes()
	vals := make([]Value, n)
	for id := range vals {
		vals[id] = NodeValue(doc.NodeByID(id))
	}
	same := func(a, b int) bool { return class[a] != noClass && class[a] == class[b] }
	byKey := map[string]int32{}
	keyOf := map[int32]string{}
	for id, v := range vals {
		if got := ix.valueClass(v); got != class[id] {
			t.Fatalf("node %d (%q): valueClass finds %d, column holds %d", id, v.Str, got, class[id])
		}
		if v.IsNum && math.IsNaN(v.Num) {
			if class[id] != noClass {
				t.Fatalf("NaN node %d (%q) has class %d", id, v.Str, class[id])
			}
			continue
		}
		key := "s\x00" + v.Str
		if v.IsNum {
			f := v.Num
			if f == 0 {
				f = 0 // fold -0
			}
			key = "n\x00" + strconv.FormatFloat(f, 'g', -1, 64)
		}
		if c, ok := byKey[key]; ok && c != class[id] {
			t.Fatalf("node %d (%q): class %d, an equal value has class %d", id, v.Str, class[id], c)
		}
		if k, ok := keyOf[class[id]]; ok && k != key {
			t.Fatalf("class %d holds both %q and %q", class[id], k, key)
		}
		byKey[key], keyOf[class[id]] = class[id], key
	}
	for a := range vals {
		hi := n
		if stride > 0 {
			hi = min(n, a+stride+1)
		}
		for b := a; b < hi; b++ {
			if same(a, b) != compareValues(OpEq, vals[a], vals[b]) {
				t.Fatalf("nodes %d (%q) and %d (%q): same class %v, compareValues %v",
					a, vals[a].Str, b, vals[b].Str, same(a, b), !same(a, b))
			}
		}
	}
}

// edgeValues are values on the boundaries of number atomization and of
// equality: padded, zero-led, exponent and overflowing spellings of
// numbers, the special values, a signed zero, a hex float, a digit-led
// date, digit-led text, and blank text.
var edgeValues = []string{
	" 7 ", "7", "07", "1e3", "1000", "nan", "NaN", "-0", "0", "Inf", "-inf",
	"1e400", "0x1p4", "16", "07/05/2000", "12 apples", "", " ", "x", "1",
}

// buildValueDoc turns bytes into a document, two bytes an operation:
// open an element, close one, add an attribute or a text node, with
// values drawn from edgeValues.
func buildValueDoc(data []byte) *xmldoc.Document {
	names := []string{"a", "b", "c"}
	d := xmldoc.NewDocument()
	stack := []*xmldoc.Node{d.CreateElement(d.DocNode(), "r")}
	for i := 0; i+1 < len(data) && d.NumNodes() < 256; i += 2 {
		op, arg := data[i]%4, int(data[i+1])
		top := stack[len(stack)-1]
		switch op {
		case 0:
			stack = append(stack, d.CreateElement(top, names[arg%len(names)]))
		case 1:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 2:
			d.CreateAttr(top, names[arg%len(names)], edgeValues[arg/len(names)%len(edgeValues)])
		case 3:
			d.CreateText(top, edgeValues[arg%len(edgeValues)])
		}
	}
	return d
}

// joinQueries are equality joins the compiled executor turns into
// probes — a level joined to an outer binding, with a scaled outer side
// and with a multi-valued side, and document-rooted relays keyed by an
// outer value and by a constant — plus the shapes it does not (a scaled
// probed side, a relay from a binding), over buildValueDoc's labels.
var joinQueries = []string{
	`for $x in /r//a return <o>{for $y in /r//b where data($y/@c) = data($x) return $y}</o>`,
	`for $x in /r//a return <o>{for $y in /r//b where data($y) = data($x/@a) * 1000 return $y}</o>`,
	`for $x in /r//a return <o>{for $y in /r//b where data($y/c) = data($x/@b) return <m>$y/c</m>}</o>`,
	`for $x in /r//a return <o>{for $y in /r//b where data($y) * 2 = data($x) return $y}</o>`,
	`for $x in /r//a where some $w in document()/r/b satisfies (data($w/@a) = data($x) and data($w) = data($x/@c)) return <o>$x</o>`,
	`for $x in /r//a where not(some $w in document()/r/c satisfies (data($w) = "7")) return <o>$x</o>`,
	`for $x in /r/a where some $w in $x/b satisfies (data($w) = data($x/@b)) return <o>$x</o>`,
	`for $y in /r//b where data($y/@a) = "07" return <o>$y</o>`,
	`for $x in /r//a return <o>{for $y in /r//b where data($y) = 1000 and data($y/@c) = data($x) return $y}</o>`,
}

// checkJoins requires the compiled executor to agree with the naive
// interpreter on every joinQueries extent and result over doc.
func checkJoins(t *testing.T, doc *xmldoc.Document) {
	t.Helper()
	ctx := context.Background()
	for _, src := range joinQueries {
		tree := MustParseQuery(src)
		naive := NewEvaluator(doc)
		naive.SetAcceleration(false)
		comp := NewEvaluator(doc)
		for _, n := range tree.Nodes() {
			if n.Var == "" {
				continue
			}
			want, werr := naive.Extent(ctx, tree, n, nil)
			got, gerr := comp.Extent(ctx, tree, n, nil)
			if werr != nil || gerr != nil {
				t.Fatalf("extent($%s) of %q: naive err=%v, compiled err=%v", n.Var, src, werr, gerr)
			}
			if !nodesEqual(want, got) {
				t.Fatalf("extent($%s) of %q: compiled %d nodes != naive %d", n.Var, src, len(got), len(want))
			}
		}
		want, werr := tree.XQueryResultString(ctx, naive)
		got, gerr := tree.XQueryResultString(ctx, NewEvaluator(doc))
		if (werr != nil) != (gerr != nil) || got != want {
			t.Fatalf("result of %q:\ncompiled %s (%v)\nnaive    %s (%v)", src, got, gerr, want, werr)
		}
	}
}

// FuzzValueClasses: on byte-built documents over edgeValues, two nodes
// share a value class iff compareValues(OpEq) holds for them, and the
// compiled executor's equality probes agree with the naive
// interpreter.
func FuzzValueClasses(f *testing.F) {
	// Seeds put edge values side by side so every join query matches:
	// " 7 "/7/07, 1e3/1000 and 0x1p4/16 as texts and attributes; then
	// nan, -0/0, Inf, 1e400, the date and the digit-led text.
	f.Add([]byte{0, 0, 2, 57, 2, 7, 3, 1, 0, 1, 3, 2, 1, 0, 1, 0, 0, 0, 2, 39, 2, 16, 2, 41, 3, 3, 1, 0,
		0, 1, 2, 11, 3, 4, 1, 0, 0, 1, 2, 8, 0, 2, 3, 2, 1, 0, 1, 0, 0, 1, 2, 9, 3, 12, 1, 0, 0, 2, 3, 1, 1, 0})
	f.Add([]byte{0, 0, 2, 21, 2, 17, 3, 8, 1, 0, 0, 0, 2, 15, 2, 28, 3, 9, 1, 0, 0, 0, 2, 34, 2, 44, 3, 15, 1, 0,
		0, 1, 2, 26, 2, 27, 3, 7, 0, 2, 3, 9, 1, 0, 1, 0, 0, 1, 2, 47, 2, 45, 3, 14, 0, 2, 3, 11, 1, 0, 1, 0,
		0, 1, 2, 17, 2, 21, 3, 5, 1, 0, 0, 2, 3, 17, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		doc := buildValueDoc(data)
		checkValueClasses(t, doc, 0)
		checkJoins(t, doc)
	})
}

// TestValueClassLookups pins the lookups constants and scaled
// operands go through: numbers by Num across spellings, text by exact
// (untrimmed) string, and NaN or absent values to no class at all.
func TestValueClassLookups(t *testing.T) {
	doc := xmldoc.MustParse(`<r><v>07</v><v> x </v><v>-0</v><v>nan</v><v>1e400</v></r>`)
	ix := NewIndex(doc)
	vs := doc.NodesWithLabel("v")
	class := ix.valueClasses().class
	for _, c := range []struct {
		v    Value
		want int32
	}{
		{StrValue("7"), class[vs[0].ID]},
		{NumValue(7), class[vs[0].ID]},
		{Value{Num: 7, IsNum: true}, class[vs[0].ID]},
		{StrValue("x"), class[vs[1].ID]},
		{StrValue(" x "), noClass},
		{StrValue("0"), class[vs[2].ID]},
		{StrValue("nan"), noClass},
		{StrValue("1e400"), class[vs[4].ID]},
		{StrValue("8"), noClass},
		{StrValue("y"), noClass},
	} {
		if got := ix.valueClass(c.v); got != c.want {
			t.Errorf("valueClass(%+v) = %d, want %d", c.v, got, c.want)
		}
	}
	if class[vs[3].ID] != noClass {
		t.Errorf("NaN node has class %d", class[vs[3].ID])
	}
}

// probeTables lists the distinct tables of tp's probes, and how many
// probes use them; a relay-level probe's first hop counts as a probe.
func probeTables(tp *TreePlan) (tables map[probeTable]bool, probes int) {
	tables = map[probeTable]bool{}
	var add func(pr *probePlan)
	add = func(pr *probePlan) {
		if pr == nil {
			return
		}
		probes++
		if pr.tab != nil {
			tables[pr.tab] = true
		}
		if pr.rng != nil {
			tables[pr.rng] = true
		}
		if pr.sel != nil {
			tables[pr.sel] = true
		}
		add(pr.hop)
	}
	for _, p := range tp.nodes {
		for i := range p.levels {
			add(p.levels[i].probe)
			for k := range p.levels[i].preds {
				add(p.levels[i].preds[k].probe)
			}
		}
	}
	return tables, probes
}

// TestSharedPlanProbesBuildOnce: the plans of a tree share one table
// per probed atom, although the probed level recurs in the plan of
// every node below it, and evaluators adopting the TreePlan
// concurrently build each table exactly once and compute extents and
// results identical to the naive interpreter's. The trees cover every
// table kind: class tables of level and relay probes, range tables of
// level and relay probes, and a relay-level probe's tables with a
// first hop (equality) and without one (its shared selection).
func TestSharedPlanProbesBuildOnce(t *testing.T) {
	inner := func(where string) *Tree {
		return MustParseQuery(`for $p in /r/ppl/p return <o>{` +
			`for $i in /r/items/item where ` + where +
			` return <i>{for $n in $i/tag return $n}</i>}</o>`)
	}
	for _, c := range []struct {
		tree           *Tree
		tables, probes int
		kinds          []probeKind
	}{
		// A level probe and a relay probe, each in the plans of $i and $n.
		{inner(`data($i/@key) = data($p/pid) and some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/price))`),
			2, 4, []probeKind{probeEq}},
		// A level range probe, and a relay range probe keyed by $i.
		{inner(`data($i/price) < data($p/pid) and some $w in document()/r/items/item satisfies (data($w/price) >= data($i/price) * 2)`),
			2, 4, []probeKind{probeRange}},
		// A relay-level probe: its first hop's class table (by $p), its
		// second hop's (over $i's candidates), and the relay's own
		// probe (by $i).
		{inner(`some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) = data($p/pid))`),
			3, 6, []probeKind{probeRelay, probeEq}},
		// A relay-level probe without a fixed atom: its second hop's
		// class table, its selection, and the relay's own probe.
		{inner(`some $w in document()/r/items/item satisfies (data($w/tag) = data($i/tag) and data($w/price) != "x")`),
			3, 4, []probeKind{probeRelay}},
	} {
		checkSharedProbes(t, c.tree, c.tables, c.probes, c.kinds)
	}
}

// checkSharedProbes runs TestSharedPlanProbesBuildOnce on one tree,
// whose plans must hold the given numbers of probes and tables, and
// level probes (or first hops) of the given kinds.
func checkSharedProbes(t *testing.T, tree *Tree, wantTables, wantProbes int, kinds []probeKind) {
	t.Helper()
	src := tree.XQueryString()
	ix := NewIndex(fuzzDoc)
	tp := NewTreePlan(ix, tree)
	tables, probes := probeTables(tp)
	if len(tables) != wantTables || probes != wantProbes {
		t.Fatalf("%s: plan set has %d probes over %d tables, want %d over %d", src, probes, len(tables), wantProbes, wantTables)
	}
	for _, k := range kinds {
		found := false
		for _, p := range tp.nodes {
			for i := range p.levels {
				found = found || (p.levels[i].probe != nil && p.levels[i].probe.kind() == k) ||
					(p.levels[i].probe != nil && p.levels[i].probe.hop != nil && p.levels[i].probe.hop.kind() == k)
			}
		}
		if !found {
			t.Fatalf("%s: no level probe of kind %d", src, k)
		}
	}
	var mu sync.Mutex
	builds := map[probeTable]int{}
	probeBuilt = func(tab probeTable) {
		mu.Lock()
		builds[tab]++
		mu.Unlock()
	}
	defer func() { probeBuilt = nil }()

	ctx := context.Background()
	naive := NewEvaluator(fuzzDoc)
	naive.SetAcceleration(false)
	wantRes, err := tree.XQueryResultString(ctx, naive)
	if err != nil {
		t.Fatal(err)
	}
	vars := []*Node{tree.VarNode("i"), tree.VarNode("n")}
	var wantExt [][]*xmldoc.Node
	for _, n := range vars {
		ext, err := naive.Extent(ctx, tree, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantExt = append(wantExt, ext)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluatorWithIndex(ix)
			ev.AdoptPlan(tp)
			for k, n := range vars {
				ext, err := ev.Extent(ctx, tree, n, nil)
				if err != nil || !nodesEqual(ext, wantExt[k]) {
					errs <- "extent of $" + n.Var + " differs from naive"
					return
				}
			}
			if res, err := tree.XQueryResultString(ctx, ev); err != nil || res != wantRes {
				errs <- "result differs from naive"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("%s: %s", src, e)
	}
	for tab := range tables {
		if builds[tab] != 1 {
			t.Errorf("%s: %T built %d times, want once", src, tab, builds[tab])
		}
	}
}

// TestProbeTableAcrossIndexes: a class table built under one Index of
// a document answers the probes of an evaluator holding a second Index
// of the same document. Class numbers depend on the document alone, so
// the evaluator's lookups land in the table's classes and its extents
// and result match the naive interpreter's.
func TestProbeTableAcrossIndexes(t *testing.T) {
	ctx := context.Background()
	for _, src := range []string{
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) return <o>$i</o>`,
		`for $i in /r/items/item where data($i/tag) = "07/05/2000" return <o>$i</o>`,
	} {
		tree := MustParseQuery(src)
		first, second := NewIndex(fuzzDoc), NewIndex(fuzzDoc)
		tp := NewTreePlan(first, tree)
		if tables, _ := probeTables(tp); len(tables) == 0 {
			t.Fatalf("%q compiles to no probe", src)
		}
		builder := NewEvaluatorWithIndex(first)
		builder.AdoptPlan(tp)
		if _, err := tree.XQueryResultString(ctx, builder); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.valueClasses().class, second.valueClasses().class) {
			t.Fatalf("two indexes of one document number its value classes differently")
		}
		naive := NewEvaluator(fuzzDoc)
		naive.SetAcceleration(false)
		ev := NewEvaluatorWithIndex(second)
		ev.AdoptPlan(tp)
		for _, n := range tree.Nodes() {
			if n.Var == "" {
				continue
			}
			want, werr := naive.Extent(ctx, tree, n, nil)
			got, gerr := ev.Extent(ctx, tree, n, nil)
			if werr != nil || gerr != nil || !nodesEqual(want, got) {
				t.Fatalf("extent($%s) of %q: %d nodes through the second index, naive %d (%v, %v)", n.Var, src, len(got), len(want), gerr, werr)
			}
		}
		want, _ := tree.XQueryResultString(ctx, naive)
		if got, err := tree.XQueryResultString(ctx, ev); err != nil || got != want {
			t.Fatalf("result of %q through the second index:\n%s\nnaive:\n%s", src, got, want)
		}
	}
}

// TestSharedPredicateAcrossTrees: two trees may hold one *Pred under
// levels with different candidates; an evaluator computing both keeps
// each probe's table over its own level's candidates.
func TestSharedPredicateAcrossTrees(t *testing.T) {
	ctx := context.Background()
	a := MustParseQuery(`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`)
	b := MustParseQuery(`for $p in /r/ppl/p return <o>{for $i in /r/ppl/p where data($i/pid) = data($p/pid) return $i}</o>`)
	b.VarNode("i").Where = a.VarNode("i").Where
	naive := NewEvaluator(fuzzDoc)
	naive.SetAcceleration(false)
	ev := NewEvaluator(fuzzDoc)
	for k, tree := range []*Tree{a, b} {
		n := tree.VarNode("i")
		want, werr := naive.Extent(ctx, tree, n, nil)
		got, gerr := ev.Extent(ctx, tree, n, nil)
		if werr != nil || gerr != nil || !nodesEqual(want, got) {
			t.Fatalf("extent($i) of tree %d: compiled %d nodes, naive %d (%v, %v)", k, len(got), len(want), gerr, werr)
		}
	}
}
