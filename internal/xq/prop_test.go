// Property test for the acceleration layers: on every scenario truth
// tree and golden learned tree, three evaluation modes must be
// node-for-node identical — the naive interpreter (acceleration off),
// the memoized interpreter (acceleration on, plan compilation off), and
// the compiled plan/execute path (the default) — in extents, including
// repeated calls (memo hits) and pinned environments (distinct cache
// keys), and in full results and binding assignments. External test
// package because xmark/xmp pull in core, which imports xq.
package xq_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

func sameNodes(a, b []*xmldoc.Node) bool {
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

// threeWay builds the three evaluation modes over one document.
func threeWay(doc *xmldoc.Document) (naive, memo, comp *xq.Evaluator) {
	naive = xq.NewEvaluator(doc)
	naive.SetAcceleration(false)
	memo = xq.NewEvaluator(doc)
	memo.SetPlanCompilation(false)
	comp = xq.NewEvaluator(doc)
	return naive, memo, comp
}

// checkExtents compares all three evaluators on every bound variable of
// the tree, twice per pinned environment so the second call is served
// from each accelerated mode's extent memo.
func checkExtents(t *testing.T, doc *xmldoc.Document, tree *xq.Tree, naive, memo, comp *xq.Evaluator) {
	t.Helper()
	ctx := context.Background()
	for _, n := range tree.Nodes() {
		if n.Var == "" {
			continue
		}
		want, err := naive.Extent(ctx, tree, n, nil)
		if err != nil {
			t.Fatalf("naive Extent($%s): %v", n.Var, err)
		}
		pins := []xq.Env{nil}
		if len(want) > 0 {
			// Pin the variable to a member (restricts the extent) and to
			// a node outside it (usually empties it): two more cache keys.
			pins = append(pins, xq.Env{n.Var: want[0]}, xq.Env{n.Var: doc.DocNode()})
		}
		for _, pin := range pins {
			want, err := naive.Extent(ctx, tree, n, pin)
			if err != nil {
				t.Fatalf("naive Extent($%s, pin): %v", n.Var, err)
			}
			for _, m := range []struct {
				mode string
				ev   *xq.Evaluator
			}{{"memoized", memo}, {"compiled", comp}} {
				mode, ev := m.mode, m.ev
				for round := 0; round < 2; round++ {
					got, err := ev.Extent(ctx, tree, n, pin)
					if err != nil {
						t.Fatalf("%s Extent($%s) round %d: %v", mode, n.Var, round, err)
					}
					if !sameNodes(want, got) {
						t.Errorf("extent($%s) pin=%v round %d: %s %d nodes != naive %d nodes",
							n.Var, pin, round, mode, len(got), len(want))
					}
				}
			}
		}
	}
}

// checkResults compares the three evaluators' full results: the
// serialized query result, and the ancestor-chain Assignments of every
// node, twice each so the second round runs on warm caches and plans.
func checkResults(t *testing.T, tree *xq.Tree, naive, memo, comp *xq.Evaluator) {
	t.Helper()
	ctx := context.Background()
	want, err := tree.XQueryResultString(ctx, naive)
	if err != nil {
		t.Fatalf("naive Result: %v", err)
	}
	nodes := tree.Nodes()
	wantEnvs := make([][]xq.Env, len(nodes))
	for i, n := range nodes {
		if wantEnvs[i], err = naive.Assignments(ctx, tree, n); err != nil {
			t.Fatalf("naive Assignments(%s): %v", n.Name(), err)
		}
	}
	for _, m := range []struct {
		mode string
		ev   *xq.Evaluator
	}{{"memoized", memo}, {"compiled", comp}} {
		for round := 0; round < 2; round++ {
			got, err := tree.XQueryResultString(ctx, m.ev)
			if err != nil {
				t.Fatalf("%s Result round %d: %v", m.mode, round, err)
			}
			if got != want {
				t.Errorf("%s Result round %d differs from naive:\n%s\n--- naive ---\n%s", m.mode, round, got, want)
			}
			for i, n := range nodes {
				got, err := m.ev.Assignments(ctx, tree, n)
				if err != nil {
					t.Fatalf("%s Assignments(%s) round %d: %v", m.mode, n.Name(), round, err)
				}
				if !sameEnvs(wantEnvs[i], got) {
					t.Errorf("%s Assignments(%s) round %d: %d envs differ from naive's %d",
						m.mode, n.Name(), round, len(got), len(wantEnvs[i]))
				}
			}
		}
	}
}

// sameEnvs compares two assignment lists entry by entry, in order.
func sameEnvs(a, b []xq.Env) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k, v := range a[i] {
			if b[i][k] != v {
				return false
			}
		}
	}
	return true
}

// goldenRef matches a child reference "{N1.2}" in a golden fragment.
var goldenRef = regexp.MustCompile(`\{(N[0-9.]+)\}`)

// goldenTree loads the golden learned tree of scenario id
// (internal/experiments/testdata/golden, one "Ni:- fragment" line per
// node), nests the fragments into one query, and parses it. The parse
// must render back to the golden lines, so the tree under test is the
// learned one.
func goldenTree(t *testing.T, id string) *xq.Tree {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("golden tree: %v", err)
	}
	frags := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, frag, _ := strings.Cut(line, ":- ")
		frags[name] = frag
	}
	var nest func(name string) string
	nest = func(name string) string {
		return goldenRef.ReplaceAllStringFunc(strings.TrimPrefix(frags[name], "return "), func(ref string) string {
			return "{" + nest(ref[1:len(ref)-1]) + "}"
		})
	}
	tree, err := xq.ParseQuery(nest("N1"))
	if err != nil {
		t.Fatalf("golden tree %s: %v", id, err)
	}
	if got := tree.String(); got != string(data) {
		t.Fatalf("golden tree %s does not round-trip:\n%s--- golden ---\n%s", id, got, data)
	}
	return tree
}

// checkLegs runs the extent and result comparisons on one tree, each
// with fresh evaluators.
func checkLegs(t *testing.T, doc *xmldoc.Document, tree *xq.Tree) {
	t.Helper()
	naive, memo, comp := threeWay(doc)
	checkExtents(t, doc, tree, naive, memo, comp)
	naive, memo, comp = threeWay(doc)
	checkResults(t, tree, naive, memo, comp)
}

func TestAcceleratedExtentMatchesNaive(t *testing.T) {
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	scens = append(scens, ucr.Scenarios()...)
	for _, s := range scens {
		t.Run(s.ID, func(t *testing.T) {
			doc := s.Doc()
			checkLegs(t, doc, s.Truth())
			checkLegs(t, doc, goldenTree(t, s.ID))
		})
	}
}

// TestAcceleratedExtentMatchesNaiveReseeded re-checks the XMark truth
// trees against a differently seeded, differently sized instance, so
// the comparison is not specific to the one document the experiment
// tables use.
func TestAcceleratedExtentMatchesNaiveReseeded(t *testing.T) {
	cfg := xmark.DefaultConfig()
	cfg.Seed = 7
	cfg.People = 13
	cfg.OpenAuctions = 9
	cfg.ClosedAuctions = 11
	doc := xmark.Generate(cfg)
	for _, s := range xmark.Scenarios() {
		t.Run(s.ID, func(t *testing.T) {
			naive, memo, comp := threeWay(doc)
			checkExtents(t, doc, s.Truth(), naive, memo, comp)
		})
	}
}

// largeXMark generates the XMark instance of the given seed with every
// size knob multiplied by four — the scale of the benchmark's new-document
// workload.
func largeXMark(seed int64) *xmldoc.Document {
	cfg := xmark.DefaultConfig()
	cfg.Seed = seed
	cfg.Categories *= 4
	cfg.ItemsPerRegion *= 4
	cfg.People *= 4
	cfg.OpenAuctions *= 4
	cfg.ClosedAuctions *= 4
	return xmark.Generate(cfg)
}

// TestLegsMatchOnLargeInstance runs the full three-way comparison —
// extents, results, assignments — of every XMark truth and golden
// learned tree on a 4x instance, where candidate sets pass the
// join-index threshold and order-by keys repeat.
func TestLegsMatchOnLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("4x instance")
	}
	doc := largeXMark(100)
	for _, s := range xmark.Scenarios() {
		t.Run(s.ID, func(t *testing.T) {
			checkLegs(t, doc, s.Truth())
			checkLegs(t, doc, goldenTree(t, s.ID))
		})
	}
}

// TestThreeWayExtentInvalidation extends the PR-3 invalidation contract
// to compiled plans: mutate a truth tree's predicates, invalidate all
// three modes, and require agreement again, in extents and in results —
// the compiled path must recompile, not serve the plan it baked the old
// predicate into.
func TestThreeWayExtentInvalidation(t *testing.T) {
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	for _, s := range scens {
		t.Run(s.ID, func(t *testing.T) {
			doc := s.Doc()
			tree := s.Truth() // a fresh parse, safe to mutate
			var target *xq.Node
			for _, n := range tree.Nodes() {
				if n.Var != "" && len(n.Where) > 0 {
					target = n
					break
				}
			}
			if target == nil {
				t.Skip("truth tree has no predicated variable")
			}
			naive, memo, comp := threeWay(doc)
			// Warm every cache on the original tree first.
			checkExtents(t, doc, tree, naive, memo, comp)
			checkResults(t, tree, naive, memo, comp)
			saved := target.Where
			target.Where = nil
			naive.InvalidateExtents()
			memo.InvalidateExtents()
			comp.InvalidateExtents()
			checkExtents(t, doc, tree, naive, memo, comp)
			checkResults(t, tree, naive, memo, comp)
			target.Where = saved
			naive.InvalidateExtents()
			memo.InvalidateExtents()
			comp.InvalidateExtents()
			checkExtents(t, doc, tree, naive, memo, comp)
			checkResults(t, tree, naive, memo, comp)
		})
	}
}

// TestValueClassesMatchCompare checks the value-class column against
// compareValues(OpEq): every node pair of the differential fuzz
// document and of each paper instance, and sampled pairs of a 4x XMark
// instance (each node with the 64 after it, plus an exhaustive
// grouping).
func TestValueClassesMatchCompare(t *testing.T) {
	xq.CheckValueClasses(t, xq.FuzzDoc, 0)
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	scens = append(scens, ucr.Scenarios()...)
	seen := map[*xmldoc.Document]bool{}
	for _, s := range scens {
		if doc := s.Doc(); !seen[doc] {
			seen[doc] = true
			xq.CheckValueClasses(t, doc, 0)
		}
	}
	if testing.Short() {
		t.Skip("4x instance")
	}
	xq.CheckValueClasses(t, largeXMark(100), 64)
}

// TestEqualityJoinsMatchNaive runs the three-way comparison on the
// equality joins the compiled executor answers by class probes, over
// the fuzz document's edge values (" 7 "/7/07, 1e3/1000, nan, -0/0,
// Inf, 1e400, a date, digit-led text): a level joined to an outer
// binding from either side and with several values per side (so one
// candidate sits in several probed classes, out of order), a scaled
// outer side, a scaled value compared as text, document-rooted relays keyed by outer values, by a
// constant and by a scaled value, a negated relay, and a relay from a
// binding, which is not probed.
func TestEqualityJoinsMatchNaive(t *testing.T) {
	for _, src := range []string{
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/@key) = data($p/pid) return $i}</o>`,
		`for $i in /r/items/item return <o>{for $p in /r/ppl/p where data($p/pid) = data($i/price) return $p}</o>`,
		`for $q in /r/ppl/p return <o>{for $p in /r/ppl/p where data($p/pid) = data($q/pid) return $p}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/tag) < data($p/pid) * 2 return $i/tag}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) = data($p/pid) and data($i/tag) != "u" return $i/tag}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where data($i/price) = data($p/pid) * 1000 return $i}</o>`,
		`for $p in /r/ppl/p return <o>{for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/@key) and data($w/pid) = data($p/pid)) return $i/@key}</o>`,
		`for $i in /r/items/item where some $w in document()/r/items/item satisfies (data($w/tag) = "1e3" and data($w/@key) = data($i/price)) return <o>$i</o>`,
		`for $i in /r/items/item where some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/tag) * 0.001) return <o>$i</o>`,
		`for $i in /r/items/item where not(some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/price))) return <o>$i</o>`,
		`for $s in /r/ppl return <o>{for $i in /r/items/item where some $w in $s/p satisfies (data($w/pid) = data($i/@key)) return $i}</o>`,
	} {
		t.Run(src, func(t *testing.T) {
			checkLegs(t, xq.FuzzDoc, xq.MustParseQuery(src))
		})
	}
}
