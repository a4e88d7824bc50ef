package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// referenceMinimizeConds is minimizeConds as it was before it decided
// every trial from one enumeration: each greedy trial sets the anchor's
// Where to the trial set, invalidates the evaluator and recomputes the
// leaf extent under every assignment. It leaves the anchor holding the
// kept predicates.
func referenceMinimizeConds(ctx context.Context, e *Engine, tree *xq.Tree, f *fragment, preds []*xq.Pred) error {
	assignments, err := e.eval.Assignments(ctx, tree, f.xqAnchor)
	if err != nil {
		return err
	}
	extents := func(ps []*xq.Pred) ([][]*xmldoc.Node, error) {
		f.xqAnchor.Where = ps
		e.eval.InvalidateExtents()
		out := make([][]*xmldoc.Node, len(assignments))
		for i, env := range assignments {
			ext, err := e.eval.Extent(ctx, tree, f.xqLeaf, env)
			if err != nil {
				return nil, err
			}
			out[i] = ext
		}
		return out, nil
	}
	full, err := extents(preds)
	if err != nil {
		return err
	}
	kept := append([]*xq.Pred{}, preds...)
	for i := 0; i < len(kept); {
		trial := append(append([]*xq.Pred{}, kept[:i]...), kept[i+1:]...)
		trialExts, err := extents(trial)
		if err != nil {
			return err
		}
		same := true
		for j, ext := range trialExts {
			if !sameNodes(ext, full[j]) {
				same = false
				break
			}
		}
		if same {
			kept = trial
			continue
		}
		i++
	}
	f.xqAnchor.Where = kept
	e.eval.InvalidateExtents()
	return nil
}

// MinimizeChecks counts the minimizeConds calls CheckMinimizeReference
// compared, by the number of predicates they started from.
type MinimizeChecks struct {
	mu     sync.Mutex
	ByLen  map[int]int
	Errors []string
}

// CheckMinimizeReference makes every minimizeConds call with
// predicates also run referenceMinimizeConds from the same start and
// record a mismatch unless both keep the same predicates in the same
// order. The returned function detaches the check. Sessions must not
// run concurrently while it is attached.
func CheckMinimizeReference() (*MinimizeChecks, func()) {
	mc := &MinimizeChecks{ByLen: map[int]int{}}
	minimized = func(ctx context.Context, e *Engine, tree *xq.Tree, f *fragment, preds []*xq.Pred) {
		got := f.xqAnchor.Where
		f.xqAnchor.Where = preds
		e.eval.InvalidateExtents()
		err := referenceMinimizeConds(ctx, e, tree, f, preds)
		want := f.xqAnchor.Where
		f.xqAnchor.Where = got
		e.eval.InvalidateExtents()
		mc.mu.Lock()
		defer mc.mu.Unlock()
		mc.ByLen[len(preds)]++
		switch {
		case err != nil:
			mc.Errors = append(mc.Errors, fmt.Sprintf("fragment %s: reference: %v", f.ref.Var, err))
		case !samePreds(got, want):
			mc.Errors = append(mc.Errors, fmt.Sprintf("fragment %s: kept %v, reference kept %v", f.ref.Var, keys(got), keys(want)))
		}
	}
	return mc, func() { minimized = nil }
}

func samePreds(a, b []*xq.Pred) bool {
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

func keys(ps []*xq.Pred) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key()
	}
	return out
}

// referenceTrim is the trim as it was before it was built from the
// accepted paths: the hypothesis intersected with the automaton of
// every instance path. A pair fragment split the result with
// RightQuotient and LastSymbols.
func referenceTrim(e *Engine, d *pathre.DFA) *pathre.DFA {
	words := make([][]string, len(e.paths))
	for i := range e.paths {
		words[i] = pathLabels(e, i)
	}
	return d.Intersect(pathre.FromStrings(words, e.alphabet))
}

// pathLabels returns the labels of the engine's instance path i.
func pathLabels(e *Engine, i int) []string {
	out := make([]string, len(e.paths[i].Pos))
	for j, a := range e.paths[i].Pos {
		out[j] = e.alphabet[a]
	}
	return out
}

// TrimChecks counts the trims CheckTrimReference compared, of plain
// and of pair fragments.
type TrimChecks struct {
	mu          sync.Mutex
	Plain, Pair int
	Errors      []string
}

// CheckTrimReference makes every trim of a learned hypothesis also run
// referenceTrim and record a mismatch unless the trimmed automaton, and
// for a pair the anchor automaton and the last labels, are the
// reference's state for state and render the same expression. The
// returned function detaches the check. Sessions must not run
// concurrently while it is attached.
func CheckTrimReference() (*TrimChecks, func()) {
	tc := &TrimChecks{}
	trimmed = func(e *Engine, d *pathre.DFA, pair bool, anchor *pathre.DFA, lasts []string) {
		ref := referenceTrim(e, d)
		full, _ := e.trim(d, false)
		var errs []string
		check := func(what string, got, want *pathre.DFA) {
			switch g, w := pathre.String(pathre.FromDFA(got)), pathre.String(pathre.FromDFA(want)); {
			case !got.Equal(want):
				errs = append(errs, fmt.Sprintf("%s: language differs from the reference's", what))
			case !sameTables(got, want):
				errs = append(errs, fmt.Sprintf("%s: same language, other tables than the reference's", what))
			case g != w:
				errs = append(errs, fmt.Sprintf("%s: renders %s, reference %s", what, g, w))
			}
		}
		check("trimmed", full, ref)
		if pair {
			check("anchor", anchor, ref.RightQuotient())
			if want := ref.LastSymbols(); !slices.Equal(lasts, want) {
				errs = append(errs, fmt.Sprintf("last labels %v, reference %v", lasts, want))
			}
		} else {
			check("anchor", anchor, ref)
		}
		tc.mu.Lock()
		defer tc.mu.Unlock()
		if pair {
			tc.Pair++
		} else {
			tc.Plain++
		}
		tc.Errors = append(tc.Errors, errs...)
	}
	return tc, func() { trimmed = nil }
}

// sameTables reports whether a and b agree state for state.
func sameTables(a, b *pathre.DFA) bool {
	if a.Start != b.Start || !slices.Equal(a.Alphabet, b.Alphabet) || !slices.Equal(a.Accept, b.Accept) {
		return false
	}
	for q := range a.Trans {
		if !slices.Equal(a.Trans[q], b.Trans[q]) {
			return false
		}
	}
	return true
}

// minDoc carries joinable values, numbers and gaps, so conjuncts of
// every kind matter somewhere and are redundant somewhere else.
const minDoc = `<r><items>` +
	`<item key="k1"><price>10</price><tag>t</tag></item>` +
	`<item key="k2"><price>20</price><tag>u</tag></item>` +
	`<item key="k3"><price>30</price></item>` +
	`<item key=" 7 "><price> 7 </price><tag>1e3</tag><tag>v</tag></item>` +
	`<item key="nan"><price>nan</price></item>` +
	`<item key="07"><price>1000</price><tag>k1</tag></item>` +
	`</items><ppl><p><pid>k1</pid></p><p><pid>k3</pid></p>` +
	`<p><pid>7</pid><pid>1e3</pid><pid>k1</pid></p><p><pid>0</pid></p></ppl></r>`

// TestMinimizeManyPredicates compares minimizeConds with the reference
// on anchors carrying one to 130 predicates — more than one word of
// condition bits — under an ancestor with several assignments, for a
// plain fragment and for a pair fragment whose leaf sits below its
// anchor. In the small cases every predicate left has a witness
// failing it alone before the last assignment, so minimization stops
// enumerating early.
func TestMinimizeManyPredicates(t *testing.T) {
	doc := xmldoc.MustParse(minDoc)
	conjuncts := []string{
		`data($i/@key) = data($p/pid)`,
		`not(empty(data($i/price)))`,
		`some $w in document()/r/ppl/p satisfies (data($w/pid) = data($i/tag))`,
		`not(some $w in $p/pid satisfies (data($w) = data($i/price)))`,
		`data($i/price) * 2 >= 0`,
		`data($i/tag) != "u"`,
	}
	type tc struct {
		where []string
		kept  int // -1: some kept and some dropped
	}
	cases := []tc{
		// The price test is implied by the join but not by its absence:
		// item k2 fails only the join, item nan fails both.
		{[]string{`data($i/price) > 5`, `data($i/@key) = data($p/pid)`}, 1},
		// Here it is not: item " 7 " joins pid 7 but fails the price
		// test, a witness only the third assignment shows, after the
		// first has shown items failing the join alone and both.
		{[]string{`data($i/price) > 8`, `data($i/@key) = data($p/pid)`}, 2},
		{conjuncts[:1], 1},
	}
	for _, n := range []int{3, 64, 65, 130} {
		var where []string
		for k := 0; k < n; k++ {
			c := conjuncts[k%len(conjuncts)]
			if k >= len(conjuncts) && k%3 == 0 {
				c = fmt.Sprintf(`data($i/price) > %d`, k%40-5)
			}
			where = append(where, c)
		}
		cases = append(cases, tc{where, -1})
	}
	for _, c := range cases {
		where, n := c.where, len(c.where)
		for _, pair := range []bool{false, true} {
			ret := `$i`
			if pair {
				ret = `<x>{for $t in $i/tag return $t}</x>`
			}
			src := `for $p in /r/ppl/p return <o>{for $i in /r/items/item where ` +
				strings.Join(where, " and ") + ` return ` + ret + `}</o>`
			t.Run(fmt.Sprintf("n%d/kept%d/pair=%v", n, c.kept, pair), func(t *testing.T) {
				results := make([][]string, 2)
				for round, minimize := range []func(context.Context, *Engine, *xq.Tree, *fragment, []*xq.Pred) error{
					referenceMinimizeConds,
					func(ctx context.Context, e *Engine, tree *xq.Tree, f *fragment, preds []*xq.Pred) error {
						return e.minimizeConds(ctx, tree, f, preds)
					},
				} {
					tree := xq.MustParseQuery(src)
					f := &fragment{xqAnchor: tree.VarNode("i"), xqLeaf: tree.VarNode("i")}
					if pair {
						f.xqLeaf = tree.VarNode("t")
					}
					preds := f.xqAnchor.Where
					if len(preds) != n {
						t.Fatalf("parsed %d predicates, want %d", len(preds), n)
					}
					e := NewEngine(doc, nil, DefaultOptions())
					if err := minimize(context.Background(), e, tree, f, preds); err != nil {
						t.Fatal(err)
					}
					results[round] = keys(f.xqAnchor.Where)
				}
				if strings.Join(results[0], "\n") != strings.Join(results[1], "\n") {
					t.Fatalf("kept %v, reference kept %v", results[1], results[0])
				}
				switch got := len(results[1]); {
				case c.kept >= 0 && got != c.kept:
					t.Fatalf("kept %d of %d predicates, want %d", got, n, c.kept)
				case c.kept < 0 && (got == 0 || got == n):
					t.Fatalf("kept %d of %d predicates; the case should drop some and keep some", got, n)
				}
			})
		}
	}
}
