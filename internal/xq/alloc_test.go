//go:build !race

package xq

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// allocDoc is a fixed instance large enough that a regression on the
// per-node or per-extent allocation paths shows up in the bounds below.
func allocDoc() (*xmldoc.Document, string) {
	var b strings.Builder
	b.WriteString("<site><regions><europe>")
	for i := 0; i < 200; i++ {
		b.WriteString("<item id=\"a\"><name>x</name><payment>Cash</payment></item>")
	}
	b.WriteString("</europe></regions></site>")
	return xmldoc.MustParse(b.String()), b.String()
}

// TestExtentHotPathAllocs pins the steady-state allocation cost of the
// evaluator's Extent hot path: after the first (memoizing) call, a
// repeat extent question must be answered from the memo without
// allocating. This is the teacher's inner loop — the paper's dialogue
// asks the same extent question once per membership query — so any
// allocation here multiplies across the whole benchmark table.
// (Build-tagged out under -race: the detector's instrumentation
// allocates.)
func TestExtentHotPathAllocs(t *testing.T) {
	doc, _ := allocDoc()
	tree := MustParseQuery(`for $i in /site/regions/europe/item return <r>$i</r>`)
	n := tree.VarNode("i")
	if n == nil {
		t.Fatal("no var node")
	}
	ev := NewEvaluator(doc)
	ctx := context.Background()
	if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("memoized Extent allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestCompiledExecAllocs pins the compiled executor's steady state: a
// warm plan run must complete entirely inside the arena — candidates
// stream from the path caches, operand values from the index's value
// column, bindings and output through the reused scratch — with zero
// heap allocations. This is the budget the ablation table's >=2x
// allocation reduction rests on; any object born here multiplies by
// every membership query of every dialogue. The join cases run on
// probes — equality, relay-level (with and without a first hop, which
// is an equality or a range probe) and range — whose first run builds
// the tables, and warm runs only read them.
func TestCompiledExecAllocs(t *testing.T) {
	doc, _ := allocDoc()
	for _, c := range []struct {
		doc    *xmldoc.Document
		src, v string
	}{
		{doc, `for $i in /site/regions/europe/item where data($i/payment) = "Cash" return <r>$i</r>`, "i"},
		{fuzzDoc, `for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) and data($i/price) = data($p/pid) return $i}</o>`, "i"},
		{fuzzDoc, `for $q in /r/ppl/p return <o>{for $p in /r/ppl/p where data($p/pid) = data($q/pid) * 1000 return $p}</o>`, "p"},
		{fuzzDoc, `for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) != "x") return <o>$i</o>`, "i"},
		{fuzzDoc, `for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($p/pid) > data($i/price) return $i}</o>`, "i"},
		{fuzzDoc, `for $i in /r/items/item where data($i/price) * 0.001 <= 5 return <o>$i</o>`, "i"},
		{fuzzDoc, `for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) = data($p/pid)) return $i}</o>`, "i"},
		{fuzzDoc, `for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/price) < data($p/pid) and data($w/tag) = data($i/tag)) return $i}</o>`, "i"},
	} {
		tree := MustParseQuery(c.src)
		n := tree.VarNode(c.v)
		if n == nil {
			t.Fatal("no var node")
		}
		ev := NewEvaluator(c.doc)
		ctx := context.Background()
		// First Extent compiles the plan and warms the path caches, the
		// probe tables and the arena; afterwards the raw executor must
		// be allocation-free.
		ext, err := ev.Extent(ctx, tree, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext) == 0 {
			t.Fatalf("%s: empty extent exercises no join", c.src)
		}
		p := ev.planFor(n)
		if p == nil {
			t.Fatal("no compiled plan")
		}
		if _, err := ev.execExtent(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ev.execExtent(ctx, p, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm compiled execExtent allocates %.1f objects per run, want 0", c.src, allocs)
		}
	}
}

// TestSharedExtentHitAllocs pins the cross-session variant: a hit in a
// published SharedExtents store must stay allocation-free too, since
// every concurrent server session funnels through it.
func TestSharedExtentHitAllocs(t *testing.T) {
	doc, _ := allocDoc()
	tree := MustParseQuery(`for $i in /site/regions/europe/item return <r>$i</r>`)
	n := tree.VarNode("i")
	shared := NewSharedExtents()
	ev := NewEvaluator(doc)
	ev.ShareExtents(shared)
	ctx := context.Background()
	if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
		t.Fatal(err)
	}
	// A second evaluator sharing the store answers from the published
	// extent without recomputing.
	ev2 := NewEvaluatorWithIndex(ev.Index())
	ev2.ShareExtents(shared)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev2.Extent(ctx, tree, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("shared-extent hit allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestParseNumberRejectsWithoutAllocating: strings ParseFloat would
// reject — ordinary text, digit-led dates and text — are answered by
// the byte-class pre-filter, without the *NumError a rejection
// allocates. Every node of a document is atomized once per index.
func TestParseNumberRejectsWithoutAllocating(t *testing.T) {
	for _, s := range []string{"Cash", "07/05/2000", "12 apples", "n/a"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := parseNumber(s); ok {
				t.Fatalf("parseNumber(%q) accepted", s)
			}
		})
		if allocs != 0 {
			t.Errorf("parseNumber(%q) allocates %.1f objects, want 0", s, allocs)
		}
	}
}

// TestTreePlanApproxBytes pins the artifact store's charge for a cached
// plan set to what the set keeps alive: build many plan sets of one
// tree, hold them, and compare the heap they retain per set with
// ApproxBytes. The compile-arena chunks the plans alias count at their
// full capacity, so an estimate of the carved entries alone falls
// short.
func TestTreePlanApproxBytes(t *testing.T) {
	doc, _ := allocDoc()
	ix := NewIndex(doc)
	tree := MustParseQuery(`for $e in /site/regions/europe return <r>{` +
		`for $i in $e/item where data($i/payment) = "Cash" and not(empty(data($i/name))) ` +
		`return <i>{for $n in $i/name where data($n) = "x" return $n}</i>}</r>`)
	NewTreePlan(ix, tree) // compile the DFAs into the index, which every plan set shares
	const sets = 256
	keep := make([]*TreePlan, sets)
	var before, after runtime.MemStats
	// Two collections each: the first only moves pooled scratch to the
	// pools' victim caches.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewTreePlan(ix, tree)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int(after.HeapAlloc-before.HeapAlloc) / sets
	est := keep[0].ApproxBytes()
	runtime.KeepAlive(keep)
	if 4*est < 3*retained || 4*est > 5*retained {
		t.Errorf("ApproxBytes = %d, plan set retains %d bytes: want within 25%%", est, retained)
	}
}
