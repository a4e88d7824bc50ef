package xq

import (
	"context"
	"testing"

	"repro/internal/xmldoc"
)

// FuzzParseQuery: the query parser never panics, and accepted queries
// render to text that reparses.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		`for $i in /a/b return <r>$i</r>`,
		`for $i in /a where data($i) < 3 and contains(data($i), "x") return <r>$i/c</r>`,
		`for $i in /a where some $w in document()/q satisfies (data($w) = data($i)) order by $i/k descending return <r>{for $j in $i/c return $j}</r>`,
		`<out><n>count({for $x in /a return $x})</n></out>`,
		`for`, `{{{`, `<a>$`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := ParseQuery(src)
		if err != nil {
			return
		}
		rendered := tree.XQueryString()
		if _, err := ParseQuery(rendered); err != nil {
			t.Fatalf("accepted %q but rendering does not reparse: %v\n%s", src, err, rendered)
		}
	})
}

// fuzzDoc is the fixed document the differential fuzz targets evaluate
// against: small enough to bound per-input work, varied enough
// (attributes, text, repeated labels, join keys) to reach paths,
// predicates, and relay joins. Its edge values sit on the boundary of
// number atomization and of equality: padded and zero-led digits,
// exponent, overflowing and special-value spellings, a signed zero, a
// digit-led date, and digit-led text — so joins on @key, price and pid
// meet values equal as numbers but not as text, and NaN.
var fuzzDoc = xmldoc.MustParse(`<r><items>` +
	`<item key="k1"><price>10</price><tag>t</tag></item>` +
	`<item key="k2"><price>20</price><tag>u</tag></item>` +
	`<item key="k3"><price>30</price></item>` +
	`<item key=" 7 "><price> 7 </price><tag>1e3</tag></item>` +
	`<item key="nan"><price>nan</price><tag>Inf</tag></item>` +
	`<item key="-0"><price>-0</price><tag>07/05/2000</tag></item>` +
	`<item key="k4"><price>12 apples</price><tag>1e3</tag></item>` +
	`<item key="07"><price>1000</price><tag>1e400</tag></item>` +
	`</items><ppl><p><pid>k1</pid></p><p><pid>k3</pid></p><p><pid>-0</pid></p>` +
	`<p><pid>7</pid><pid>1e3</pid><pid>1</pid><pid>k1</pid></p><p><pid>0</pid></p><p><pid>nan</pid></p></ppl></r>`)

// FuzzCompiledExtent: every query the parser accepts must produce
// node-for-node identical extents under the naive interpreter and the
// compiled plan/execute path, for every bound variable, unpinned and
// pinned — the differential oracle for the plan compiler and arena
// executor. Its where clauses must also answer the same under the
// compiled condition checks (Conds, PredHolds) as under the naive
// PredHolds, binding by binding.
func FuzzCompiledExtent(f *testing.F) {
	for _, seed := range []string{
		`for $i in /r/items/item return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) > 15 return <o>$i</o>`,
		`for $i in /r/items/item where data($i/@key) = "k2" return <o>$i</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) return <o>$i</o>`,
		`for $i in /r/items return <o>{for $j in $i/item where not(empty(data($j/tag))) return $j}</o>`,
		`for $i in /r//price where data($i) * 0.5 >= 10 return <o>$i</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) = data($p/pid) * 1000 return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/price) and data($w/pid) = data($i/@key)) return <o>$i</o>`,
		`for $i in /r/items/item where not(some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/tag) * 0.001)) return <o>$i</o>`,
		`for $i in /r/items/item where not(data($i/price) = " 7 ") and data($i/@key) != "nan" return <o>$i</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where not(some $w in $p/pid satisfies (data($w) = data($i/price))) and data($i/tag) = "1e3" return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/price) = "-0" and data($w/@key) = data($i/@key)) return <o>$i</o>`,
		// Ordering joins, answered by range probes: every operator,
		// against constants (numbers, " 7 ", "1e3", "nan", "-0", the
		// date) and outer bindings, under positive, negative and zero
		// multipliers on either side.
		`for $i in /r/items/item where data($i/price) < 25 return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) <= " 7 " and data($i/tag) > "07/05/2000" return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) >= "1e3" return <o>$i</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) > "nan" and data($i/@key) < data($p/pid) return $i}</o>`,
		`for $i in /r/items/item where data($i/@key) >= "-0" and data($i/price) * -2 < -30 return <o>$i</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($p/pid) > data($i/price) * 0.01 return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) * -2 >= data($p/pid) return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/tag) * 0 < data($p/pid) and data($i/price) <= data($p/pid) * 1000 return $i}</o>`,
		`for $p in /r/ppl/p where data($p/pid) > 0 return <o>{for $i in /r/items/item where data($p/pid) >= data($i/price) * 0.5 return $i}</o>`,
		// Relay joins, answered by relay-level probes: Q9's two hops
		// (the relay by the outer binding, then the level by the relay's
		// link values), a first hop by a range, and a relay that links
		// only to the level.
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) = data($p/pid)) return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/price) > data($p/pid) and data($w/@key) = data($i/@key)) return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/tag) = data($i/price)) return <o>$i</o>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := ParseQuery(src)
		if err != nil {
			return
		}
		// Bound the nested-loop depth so the naive oracle stays cheap.
		if len(tree.Nodes()) > 8 {
			return
		}
		naive := NewEvaluator(fuzzDoc)
		naive.SetAcceleration(false)
		comp := NewEvaluator(fuzzDoc)
		ctx := context.Background()
		for _, n := range tree.Nodes() {
			if n.Var == "" {
				continue
			}
			want, werr := naive.Extent(ctx, tree, n, nil)
			got, gerr := comp.Extent(ctx, tree, n, nil)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("extent($%s) of %q: naive err=%v, compiled err=%v", n.Var, src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if !nodesEqual(want, got) {
				t.Fatalf("extent($%s) of %q: compiled %d nodes != naive %d", n.Var, src, len(got), len(want))
			}
			pins := []Env{{n.Var: fuzzDoc.DocNode()}}
			if len(want) > 0 {
				pins = append(pins, Env{n.Var: want[0]})
			}
			for _, pin := range pins {
				want, werr := naive.Extent(ctx, tree, n, pin)
				got, gerr := comp.Extent(ctx, tree, n, pin)
				if werr != nil || gerr != nil {
					t.Fatalf("pinned extent($%s) of %q: naive err=%v, compiled err=%v", n.Var, src, werr, gerr)
				}
				if !nodesEqual(want, got) {
					t.Fatalf("pinned extent($%s) of %q: compiled %d nodes != naive %d", n.Var, src, len(got), len(want))
				}
			}
		}
		checkConds(t, fuzzDoc, tree, 8, 16)
	})
}

// FuzzCompiledResult: every query the parser accepts must serialize to
// the same result under the naive interpreter and the default
// evaluator, whose binding enumeration runs on compiled plans — the
// differential oracle for result construction (order by, aggregates,
// nested returns, relay joins) and for the node-value column the
// default evaluator atomizes from.
func FuzzCompiledResult(f *testing.F) {
	for _, seed := range []string{
		`for $i in /r/items/item order by $i/price return <o>$i/price</o>`,
		`for $i in /r/items/item order by $i/tag descending, $i/price return <o>$i/tag</o>`,
		`<n>count({for $i in /r/items/item where data($i/price) > 15 return $i})</n>`,
		`<s>sum({for $i in /r//price return $i})</s>`,
		`<m>min({for $i in /r/items/item/tag return $i})</m>`,
		`for $i in /r/items return <o>{for $j in $i/item order by $j/price descending return <p>{for $k in $j/tag return $k}</p>}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) return <o>$i/price</o>`,
		`for $i in /r/items/item where data($i/price) >= 7 return <v>(data($i/price) * 2)</v>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/tag) = data($p/pid) and data($i/price) != "x" return $i/price}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = "7") return <o>$i/@key</o>`,
		`for $i in /r/items return <o>{for $j in $i/item where some $w in $i/item satisfies (data($w/price) * 2 = data($j/price) * 2) return $j/@key}</o>`,
		`for $q in /r/ppl/p return <o>{for $p in /r/ppl/p where data($p/pid) = data($q/pid) return $p}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/tag) < data($p/pid) * 2 return $i/tag}</o>`,
		// Ordering joins (range probes) and relay joins (relay-level
		// probes), as in FuzzCompiledExtent.
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($p/pid) > data($i/price) * 0.001 return $i/price}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) * -1 <= data($p/pid) return $i/@key}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) * 0 >= data($p/pid) return $i/price}</o>`,
		`for $i in /r/items/item where data($i/price) < "1e3" and data($i/tag) >= "07/05/2000" return <o>$i/tag</o>`,
		`<n>count({for $i in /r/items/item where data($i/price) > "-0" return $i})</n>`,
		`for $p in /r/ppl/p where data($p/pid) < 5 return <o>{for $i in /r/items/item where data($p/pid) * 5000 > data($i/price) return $i/price}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) = data($p/pid)) return <n>$i/price</n>}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/price)) return <o>$i/@key</o>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := ParseQuery(src)
		if err != nil {
			return
		}
		// Bound the nested-loop depth so the naive oracle stays cheap.
		if len(tree.Nodes()) > 8 {
			return
		}
		naive := NewEvaluator(fuzzDoc)
		naive.SetAcceleration(false)
		ctx := context.Background()
		want, werr := tree.XQueryResultString(ctx, naive)
		got, gerr := tree.XQueryResultString(ctx, NewEvaluator(fuzzDoc))
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("result of %q: naive err=%v, compiled err=%v", src, werr, gerr)
		}
		if got != want {
			t.Fatalf("result of %q:\ncompiled %s\nnaive    %s", src, got, want)
		}
	})
}
