package xq

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

// checkConds compares the compiled condition checks with the naive
// interpreter on every predicated variable of tree: for up to maxEnvs
// of the node's ancestor assignments and up to maxCands of its
// unfiltered candidates, PredHolds on each predicate and CondsHold on
// the whole Where clause must answer as the naive PredHolds does. The
// compiled evaluator's arena is reset between assignments, so the
// compiled conjunction is also recompiled mid-use.
func checkConds(t testing.TB, doc *xmldoc.Document, tree *Tree, maxEnvs, maxCands int) {
	t.Helper()
	ctx := context.Background()
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	memo := NewEvaluator(doc)
	memo.SetPlanCompilation(false)
	comp := NewEvaluator(doc)
	for _, n := range tree.Nodes() {
		if n.Var == "" || len(n.Where) == 0 || n.Path == nil {
			continue
		}
		envs, err := naive.Assignments(ctx, tree, n)
		if err != nil {
			t.Fatalf("naive Assignments(%s): %v", n.Name(), err)
		}
		for _, env := range envs[:min(len(envs), maxEnvs)] {
			var start *xmldoc.Node
			if n.From != "" {
				if start = env[n.From]; start == nil {
					continue
				}
			}
			var vars []string
			for v := range env {
				if v != n.Var {
					vars = append(vars, v)
				}
			}
			slices.Sort(vars)
			vars = append(vars, n.Var)
			vals := make([]*xmldoc.Node, len(vars))
			for i, v := range vars[:len(vars)-1] {
				vals[i] = env[v]
			}
			conds := comp.CompileConds(vars, n.Where)
			memoConds := memo.CompileConds(vars, n.Where)
			cands := naive.PathNodes(start, n.Path)
			for _, c := range cands[:min(len(cands), maxCands)] {
				full := Env{n.Var: c}
				for k, v := range env {
					if k != n.Var {
						full[k] = v
					}
				}
				vals[len(vals)-1] = c
				want := true
				for _, p := range n.Where {
					w := naive.PredHolds(p, full)
					if got := comp.PredHolds(p, full); got != w {
						t.Fatalf("%s: compiled PredHolds(%s) = %v for $%s=%s, naive %v",
							n.Name(), p.Key(), got, n.Var, c.PathString(), w)
					}
					want = want && w
				}
				if got := comp.CondsHold(conds, vals); got != want {
					t.Fatalf("%s: compiled CondsHold = %v for $%s=%s, naive %v", n.Name(), got, n.Var, c.PathString(), want)
				}
				if got := memo.CondsHold(memoConds, vals); got != want {
					t.Fatalf("%s: memoized CondsHold = %v for $%s=%s, naive %v", n.Name(), got, n.Var, c.PathString(), want)
				}
			}
			comp.InvalidateExtents()
		}
	}
}

// TestCondsEdgeValues runs checkConds on the fuzz document's edge
// values through plain, negated, scaled and relay predicates, relays
// from the document (probed) and from a binding (walked).
func TestCondsEdgeValues(t *testing.T) {
	for _, src := range []string{
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where not(data($i/price) = data($p/pid)) and data($i/tag) != "u" return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) = data($p/pid) * 1000 return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key)) return <o>$i</o>`,
		`for $i in /r/items/item where not(some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/tag) * 0.001)) return <o>$i</o>`,
		`for $s in /r/ppl return <o>{for $i in /r/items/item where some $w in $s/p satisfies (data($w/pid) = data($i/@key)) return $i}</o>`,
		`for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/tag) = "1e3" and data($w/@key) = data($i/price)) return <o>$i</o>`,
		`for $i in /r/items/item where empty(data($i/tag)) and data($i/price) > 15 return <o>$i</o>`,
		`for $i in /r/items/item where data($i/price) = "-0" and data($i/tag) != "nan" and data($i/@key) < "k" return <o>$i</o>`,
	} {
		t.Run(src, func(t *testing.T) { checkConds(t, fuzzDoc, MustParseQuery(src), 16, 64) })
	}
}

// TestCondsBindings covers what the slot environment must mirror of an
// Env: a later duplicate name shadows an earlier one, a nil value is
// unbound, a relay variable shadows a bound one of the same name, and
// nodes of another document take the interpreted leg.
func TestCondsBindings(t *testing.T) {
	items := fuzzDoc.Root().ChildElementsNamed("items")[0].ChildElementsNamed("item")
	ppl := fuzzDoc.Root().ChildElementsNamed("ppl")[0].ChildElementsNamed("p")
	where := func(src string) []*Pred {
		return MustParseQuery(`for $i in /r/items/item where ` + src + ` return $i`).VarNode("i").Where
	}
	ev := NewEvaluator(fuzzDoc)
	key := where(`data($i/@key) = "k2"`)
	c := ev.CompileConds([]string{"i", "j", "i"}, key)
	if !ev.CondsHold(c, []*xmldoc.Node{items[0], nil, items[1]}) {
		t.Error("the later $i (k2) must shadow the earlier (k1)")
	}
	if ev.CondsHold(c, []*xmldoc.Node{items[1], nil, items[0]}) {
		t.Error("the later $i (k1) must shadow the earlier (k2)")
	}
	if ev.CondsHold(c, []*xmldoc.Node{items[1], nil, nil}) {
		t.Error("a nil $i must be unbound, not fall back to the earlier binding")
	}
	if !ev.CondsHold(ev.CompileConds([]string{"i"}, where(`empty(data($i/tag))`)), []*xmldoc.Node{nil}) {
		t.Error("an unbound operand must be empty")
	}
	relay := where(`some $i in document()/r/ppl/p satisfies (data($i/pid) = "k3")`)
	if !ev.CondsHold(ev.CompileConds([]string{"i"}, relay), []*xmldoc.Node{items[1]}) {
		t.Error("the relay variable must shadow the bound $i")
	}
	// Another document: the compiled leg would read this evaluator's
	// columns at the foreign node's ID.
	other := xmldoc.MustParse(`<r><items><item key="k2"/></items></r>`)
	foreign := other.Root().ChildElementsNamed("items")[0].ChildElementsNamed("item")[0]
	if !ev.CondsHold(ev.CompileConds([]string{"i"}, key), []*xmldoc.Node{foreign}) {
		t.Error("a foreign node must be checked by the interpreter")
	}
	if !ev.PredHolds(key[0], Env{"i": foreign, "p": ppl[0]}) {
		t.Error("PredHolds on a foreign node must be checked by the interpreter")
	}
}

// TestCondExtentBits checks one lifted enumeration against the
// extents of every subset of the lifted Where clause: for each subset
// and ancestor assignment, the leaf bindings with a derivation whose
// bits cover the subset are exactly the extent with that subset as the
// Where clause.
func TestCondExtentBits(t *testing.T) {
	for _, src := range []string{
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) and not(empty(data($i/tag))) and data($i/price) > 5 return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/tag)) and data($i/price) != data($p/pid) return <x>{for $t in $i/tag return $t}</x>}</o>`,
		`for $s in /r/ppl return <o>{for $i in /r/items/item where some $w in $s/p satisfies (data($w/pid) = data($i/@key)) and data($i/price) * 2 >= 20 return <x>{for $t in $i/tag return $t}</x>}</o>`,
	} {
		t.Run(src, func(t *testing.T) {
			ctx := context.Background()
			tree := MustParseQuery(src)
			anchor, leaf := tree.VarNode("i"), tree.VarNode("t")
			if leaf == nil {
				leaf = anchor
			}
			preds := anchor.Where
			ev := NewEvaluator(fuzzDoc)
			envs, err := ev.Assignments(ctx, tree, anchor)
			if err != nil {
				t.Fatal(err)
			}
			ce, err := ev.CompileCondExtent(leaf, anchor)
			if err != nil {
				t.Fatal(err)
			}
			hits := make([]CondHits, len(envs))
			for j, env := range envs {
				if hits[j], err = ev.CondExtent(ctx, ce, env, CondHits{}); err != nil {
					t.Fatal(err)
				}
			}
			naive := NewEvaluator(fuzzDoc)
			naive.SetAcceleration(false)
			for s := 0; s < 1<<len(preds); s++ {
				var sub []*Pred
				for k := range preds {
					if s&(1<<k) != 0 {
						sub = append(sub, preds[k])
					}
				}
				anchor.Where = sub
				for j, env := range envs {
					want, err := naive.Extent(ctx, tree, leaf, env)
					if err != nil {
						t.Fatal(err)
					}
					var got []*xmldoc.Node
					h := hits[j]
					for i, n := range h.Nodes {
						if h.Mask(i)[0]&uint64(s) == uint64(s) && (len(got) == 0 || got[len(got)-1] != n) {
							got = append(got, n)
						}
					}
					if !nodesEqual(got, want) {
						t.Fatalf("subset %b, assignment %d: bits give %d nodes, extent has %d", s, j, len(got), len(want))
					}
				}
			}
			anchor.Where = preds
		})
	}
}

// TestCompileCondExtentOffChain: lifting a node that is not on the
// leaf's binding chain is an error.
func TestCompileCondExtentOffChain(t *testing.T) {
	tree := MustParseQuery(`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`)
	_, err := NewEvaluator(fuzzDoc).CompileCondExtent(tree.VarNode("p"), tree.VarNode("i"))
	if !errors.Is(err, ErrNotOnChain) {
		t.Fatalf("err = %v, want ErrNotOnChain", err)
	}
}
