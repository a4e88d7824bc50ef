package core_test

import (
	"context"
	"repro/internal/must"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/pathre"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestNoRelativizeOption: with relativization off the learned bindings
// stay document-rooted, yet the result must still verify (the value
// predicates carry the correlation).
func TestNoRelativizeOption(t *testing.T) {
	opts := core.DefaultOptions()
	opts.NoRelativize = true
	tree, _, _, doc := runningExample(t, opts, teacher.BestCase)
	if _, _, eq := resultEqual(doc, tree, truthQ1()); !eq {
		t.Fatal("NoRelativize must still learn a result-equal query")
	}
	s := tree.String()
	if strings.Contains(s, "for $d in $i/description") {
		t.Fatalf("relativization disabled but binding is relative:\n%s", s)
	}
	if !strings.Contains(s, "for $d in /site/regions") {
		t.Fatalf("expected a rooted desc binding:\n%s", s)
	}
}

// TestKeepRedundantCondsOption: the strongest conjunction is kept
// verbatim, so the desc fragment carries its scaffolding predicate.
func TestKeepRedundantCondsOption(t *testing.T) {
	opts := core.DefaultOptions()
	opts.KeepRedundantConds = true
	tree, _, _, doc := runningExample(t, opts, teacher.BestCase)
	if _, _, eq := resultEqual(doc, tree, truthQ1()); !eq {
		t.Fatal("KeepRedundantConds must still learn a result-equal query")
	}
}

// TestR2Backtracking: the last-tag heuristic auto-answers No for paths
// ending in other tags; a positive counterexample with a different
// final tag forces the documented backtrack (Section 8, rule R2), and
// learning still converges.
func TestR2Backtracking(t *testing.T) {
	// Target extent mixes two final tags: title and name.
	src := `<lib>
	  <book><title>A</title></book>
	  <book><title>B</title></book>
	  <mag><name>C</name></mag>
	  <mag><name>D</name></mag>
	  <junk><label>E</label></junk>
	</lib>`
	doc := xmldoc.MustParse(src)
	truth := xq.NewTree(&xq.Node{
		Ret: xq.RElem{Tag: "out"},
	})
	entry := &xq.Node{
		Var: "x", Path: pathre.MustParsePath("/lib/(book/title|mag/name)"),
		Ret: xq.RElem{Tag: "entry", Kids: []xq.RetExpr{xq.RVar{Name: "x"}}},
	}
	truth.Root.Children = []*xq.Node{entry}
	truth.Root.Ret = xq.RElem{Tag: "out", Kids: []xq.RetExpr{xq.RChild{Node: entry}}}
	truth.Renumber()

	sim := teacher.New(doc, truth)
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	tree, stats, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(`<!ELEMENT out (entry*)> <!ELEMENT entry (#PCDATA)>`),
		Drops: []core.Drop{{
			Path: "out/entry", Var: "x",
			Select: teacher.SelectByText("title", "A"),
		}},
	})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	ev := xmldocEval(doc)
	got := xmldoc.XMLString(must.Must(ev.Result(context.Background(), tree)).DocNode())
	tev := xmldocEval(doc)
	want := xmldoc.XMLString(must.Must(tev.Result(context.Background(), truth)).DocNode())
	if got != want {
		t.Fatalf("mixed-final-tag extent not learned:\ngot  %s\nwant %s\n%s", got, want, tree.String())
	}
	// The backtrack restarts L* at least once.
	if stats.Totals().Restarts == 0 {
		t.Error("expected an L* restart from the R2 backtrack")
	}
	// Replay across the restart, pinned exactly: the answers given
	// before the backtrack are replayed from the cache and never charged
	// again (MQ), the R2 defaults are dropped at the backtrack and the
	// restarted table re-derives what it needs under R1 alone, and each
	// auto-answer is charged once to its rule.
	wantStats := core.FragmentStats{
		Var: "x", TemplatePath: "out/entry",
		MQ: 4, CE: 2,
		ReducedR1: 148, ReducedR2: 24, ReducedBoth: 20, ReducedTotal: 152,
		Restarts: 1, PathStates: 5,
	}
	if len(stats.Fragments) != 1 || stats.Fragments[0] != wantStats {
		t.Errorf("fragment stats:\ngot  %+v\nwant [%+v]", stats.Fragments, wantStats)
	}
	// The label tag never enters the extent.
	if strings.Contains(got, "E") {
		t.Error("junk label leaked into the extent")
	}
}

func xmldocEval(doc *xmldoc.Document) *xq.Evaluator { return xq.NewEvaluator(doc) }

// TestStructuralPriorRefuted: a positive counterexample outside the
// context anchor's subtree demotes the navigational assumption to a
// rooted binding with learned joins.
func TestStructuralPriorRefuted(t *testing.T) {
	// Orders live OUTSIDE the customer subtree, joined by id; the
	// example order happens to share a prefix... the first drop anchors
	// the customer, the second drops an order total that is NOT under
	// the customer.
	src := `<db>
	  <customers>
	    <customer id="c1"><cname>Ann</cname></customer>
	    <customer id="c2"><cname>Bob</cname></customer>
	  </customers>
	  <orders>
	    <order cust="c1"><total>10</total></order>
	    <order cust="c1"><total>20</total></order>
	    <order cust="c2"><total>30</total></order>
	  </orders>
	</db>`
	doc := xmldoc.MustParse(src)
	ordersNode := &xq.Node{
		Var: "o", Path: pathre.MustParsePath("/db/orders/order/total"),
		Where: []*xq.Pred{{
			RelayVar: "w", RelayPath: xq.MustParseSimplePath("db/orders/order"),
			Atoms: []xq.Cmp{
				{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("total")), R: xq.VarOp("o", nil)},
				{Op: xq.OpEq, L: xq.VarOp("w", xq.MustParseSimplePath("@cust")), R: xq.VarOp("c", xq.MustParseSimplePath("@id"))},
			},
		}},
		Ret: xq.RElem{Tag: "ototal", Kids: []xq.RetExpr{xq.RVar{Name: "o"}}},
	}
	leaf := &xq.Node{
		Var: "n", From: "c", Path: pathre.MustParsePath("cname"),
		Ret: xq.RElem{Tag: "name2", Kids: []xq.RetExpr{xq.RVar{Name: "n"}}}, OneLabeled: true,
	}
	cust := &xq.Node{
		Var: "c", Path: pathre.MustParsePath("/db/customers/customer"),
		Ret: xq.RElem{Tag: "cust2", Kids: []xq.RetExpr{
			xq.RChild{Node: leaf}, xq.RChild{Node: ordersNode},
		}},
		Children: []*xq.Node{leaf, ordersNode},
	}
	truth := xq.NewTree(&xq.Node{
		Ret:      xq.RElem{Tag: "report", Kids: []xq.RetExpr{xq.RChild{Node: cust}}},
		Children: []*xq.Node{cust},
	})

	sim := teacher.New(doc, truth)
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	tree, _, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(`
<!ELEMENT report (cust2*)>
<!ELEMENT cust2 (name2, ototal*)>
<!ELEMENT name2 (#PCDATA)>
<!ELEMENT ototal (#PCDATA)>`),
		Drops: []core.Drop{
			{Path: "report/cust2/name2", Var: "n", AnchorVar: "c",
				Select: teacher.SelectByText("cname", "Ann")},
			{Path: "report/cust2/ototal", Var: "o",
				Select: teacher.SelectByText("total", "10")},
		},
	})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	got := xmldoc.XMLString(must.Must(xmldocEval(doc).Result(context.Background(), tree)).DocNode())
	want := xmldoc.XMLString(must.Must(xmldocEval(doc).Result(context.Background(), truth)).DocNode())
	if got != want {
		t.Fatalf("join over non-descendant data not learned:\ngot  %s\nwant %s\nquery:\n%s",
			got, want, tree.String())
	}
	// Bob's totals must only contain 30.
	if !strings.Contains(got, "30") || strings.Count(got, "<ototal>") != 3 {
		t.Fatalf("unexpected result: %s", got)
	}
}

// TestContextSwitching: the first dropped example is wrong (it is not
// in the intended extent and no Condition Box can repair it); the
// engine switches to the alternate example and converges (Section 2's
// "change the context by switching to other choices of dropped
// examples").
func TestContextSwitching(t *testing.T) {
	src := `<lib>
	  <eu><book><title>A</title></book><book><title>B</title></book></eu>
	  <us><book><title>C</title></book></us>
	</lib>`
	doc := xmldoc.MustParse(src)
	entry := &xq.Node{
		Var: "x", Path: pathre.MustParsePath("/lib/eu/book/title"),
		Ret: xq.RElem{Tag: "entry", Kids: []xq.RetExpr{xq.RVar{Name: "x"}}},
	}
	truth := xq.NewTree(&xq.Node{
		Ret:      xq.RElem{Tag: "out", Kids: []xq.RetExpr{xq.RChild{Node: entry}}},
		Children: []*xq.Node{entry},
	})
	sim := teacher.New(doc, truth)
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	tree, stats, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(`<!ELEMENT out (entry*)> <!ELEMENT entry (#PCDATA)>`),
		Drops: []core.Drop{{
			Path: "out/entry", Var: "x",
			// Wrong drop: a us title, outside the intended extent.
			Select: teacher.SelectByText("title", "C"),
			Alternates: []func(*xmldoc.Document) *xmldoc.Node{
				func(*xmldoc.Document) *xmldoc.Node { return nil }, // dud alternate
				teacher.SelectByText("title", "A"),
			},
		}},
	})
	if err != nil {
		t.Fatalf("Learn with alternates: %v", err)
	}
	if stats.Fragments[0].ContextSwitches == 0 {
		t.Fatal("expected a context switch")
	}
	got := xmldoc.XMLString(must.Must(xmldocEval(doc).Result(context.Background(), tree)).DocNode())
	if !strings.Contains(got, "A") || !strings.Contains(got, "B") || strings.Contains(got, "C") {
		t.Fatalf("result after context switch = %s", got)
	}
}

// TestContextSwitchingExhausted: when every alternate fails, the last
// error surfaces.
func TestContextSwitchingExhausted(t *testing.T) {
	src := `<lib><eu><book><title>A</title></book></eu><us><book><title>C</title></book></us></lib>`
	doc := xmldoc.MustParse(src)
	entry := &xq.Node{
		Var: "x", Path: pathre.MustParsePath("/lib/eu/book/title"),
		Ret: xq.RElem{Tag: "entry", Kids: []xq.RetExpr{xq.RVar{Name: "x"}}},
	}
	truth := xq.NewTree(&xq.Node{
		Ret:      xq.RElem{Tag: "out", Kids: []xq.RetExpr{xq.RChild{Node: entry}}},
		Children: []*xq.Node{entry},
	})
	sim := teacher.New(doc, truth)
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	_, _, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(`<!ELEMENT out (entry*)> <!ELEMENT entry (#PCDATA)>`),
		Drops: []core.Drop{{
			Path: "out/entry", Var: "x",
			Select:     teacher.SelectByText("title", "C"),
			Alternates: []func(*xmldoc.Document) *xmldoc.Node{teacher.SelectByText("title", "C")},
		}},
	})
	if err == nil {
		t.Fatal("exhausted alternates must fail")
	}
}

// TestChoiceTargetSchema: a (a|b)* choice in the target schema takes one
// drop per branch (the paper's footnote 2: "XLearner can take more than
// one combination of dropped examples for full support of the |
// structure").
func TestChoiceTargetSchema(t *testing.T) {
	src := `<zoo>
	  <cats><cat><cn>Tom</cn></cat><cat><cn>Felix</cn></cat></cats>
	  <dogs><dog><dn>Rex</dn></dog></dogs>
	</zoo>`
	doc := xmldoc.MustParse(src)
	catFrag := &xq.Node{
		Var: "c", Path: pathre.MustParsePath("/zoo/cats/cat/cn"),
		Ret: xq.RElem{Tag: "feline", Kids: []xq.RetExpr{xq.RVar{Name: "c"}}},
	}
	dogFrag := &xq.Node{
		Var: "d", Path: pathre.MustParsePath("/zoo/dogs/dog/dn"),
		Ret: xq.RElem{Tag: "canine", Kids: []xq.RetExpr{xq.RVar{Name: "d"}}},
	}
	truth := xq.NewTree(&xq.Node{
		Ret: xq.RElem{Tag: "animals", Kids: []xq.RetExpr{
			xq.RChild{Node: catFrag}, xq.RChild{Node: dogFrag},
		}},
		Children: []*xq.Node{catFrag, dogFrag},
	})
	sim := teacher.New(doc, truth)
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	tree, _, err := eng.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(`
<!ELEMENT animals (feline | canine)*>
<!ELEMENT feline (#PCDATA)>
<!ELEMENT canine (#PCDATA)>`),
		Drops: []core.Drop{
			{Path: "animals/feline", Var: "c", Select: teacher.SelectByText("cn", "Tom")},
			{Path: "animals/canine", Var: "d", Select: teacher.SelectByText("dn", "Rex")},
		},
	})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	got := xmldoc.XMLString(must.Must(xmldocEval(doc).Result(context.Background(), tree)).DocNode())
	for _, want := range []string{"Tom", "Felix", "Rex", "<feline>", "<canine>"} {
		if !strings.Contains(got, want) {
			t.Fatalf("choice result missing %q: %s", want, got)
		}
	}
}

// TestKVLearnerOption: the running example learns correctly with the
// Kearns-Vazirani learner in place of L*.
func TestKVLearnerOption(t *testing.T) {
	opts := core.DefaultOptions()
	opts.UseKVLearner = true
	tree, stats, _, doc := runningExample(t, opts, teacher.BestCase)
	if _, _, eq := resultEqual(doc, tree, truthQ1()); !eq {
		t.Fatal("KV-learned query must reproduce the truth")
	}
	// KV's hallmark: drastically fewer auto-answered membership probes.
	base, _, _, _ := runningExample(t, core.DefaultOptions(), teacher.BestCase)
	_ = base
	if stats.Totals().ReducedTotal == 0 {
		t.Log("KV asked no reducible membership queries on this target")
	}
}

// TestFunctionalOptionsSetFields pins each With* option to the Options
// field it controls, including the replace-wholesale WithOptions shim.
func TestFunctionalOptionsSetFields(t *testing.T) {
	apply := func(opts ...core.Option) core.Options {
		o := core.DefaultOptions()
		for _, f := range opts {
			f(&o)
		}
		return o
	}
	if o := apply(core.WithR1(false), core.WithR2(false)); o.R1 || o.R2 {
		t.Fatalf("WithR1/WithR2: %+v", o)
	}
	if o := apply(core.WithMaxEQ(7)); o.MaxEQ != 7 {
		t.Fatalf("WithMaxEQ: %+v", o)
	}
	if o := apply(core.WithKVLearner(true)); !o.UseKVLearner {
		t.Fatalf("WithKVLearner: %+v", o)
	}
	if o := apply(core.WithKeepRedundantConds(true)); !o.KeepRedundantConds {
		t.Fatalf("WithKeepRedundantConds: %+v", o)
	}
	if o := apply(core.WithRelativize(false)); !o.NoRelativize {
		t.Fatalf("WithRelativize(false): %+v", o)
	}
	d := dtd.MustParse(`<!ELEMENT a (#PCDATA)>`)
	if o := apply(core.WithR1Filter(d)); o.R1Filter != d {
		t.Fatalf("WithR1Filter: %+v", o)
	}
	// WithOptions replaces the whole configuration, then later options
	// refine it.
	base := core.DefaultOptions()
	base.MaxEQ = 3
	if o := apply(core.WithR1(false), core.WithOptions(base), core.WithMaxEQ(9)); !o.R1 || o.MaxEQ != 9 {
		t.Fatalf("WithOptions ordering: %+v", o)
	}
}

// TestNewEquivalentToNewSession: the functional-option constructor and
// the positional shim configure identical engines — same learned tree,
// same interaction counts.
func TestNewEquivalentToNewSession(t *testing.T) {
	opts := core.DefaultOptions()
	opts.R2 = false
	shimTree, shimStats, _, _ := runningExample(t, opts, teacher.BestCase)

	doc := xmldoc.MustParse(sourceXML)
	truth := truthQ1()
	sim := teacher.New(doc, truth)
	sim.Pol = teacher.BestCase
	sim.Boxes = map[string][]core.BoxEntry{
		"in": {{
			Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
				for _, p := range d.NodesWithLabel("price") {
					if p.Text() == "50" {
						return p
					}
				}
				return nil
			},
			Op: xq.OpLt, Const: "300",
		}},
	}
	sess := core.New(doc, sim, core.WithOptions(core.DefaultOptions()), core.WithR2(false))
	tree, stats, err := sess.Learn(context.Background(), &core.TaskSpec{
		Target: dtd.MustParse(targetDTD),
		Drops: []core.Drop{
			{Path: "i_list/category/cname", Var: "cn", AnchorVar: "c",
				Select: teacher.SelectByText("name", "book")},
			{Path: "i_list/category/item/iname", Var: "in", AnchorVar: "i",
				Select: teacher.SelectByText("name", "H. Potter")},
			{Path: "i_list/category/item/desc", Var: "d",
				Select: teacher.SelectByText("description", "Best Seller")},
		},
	})
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if tree.String() != shimTree.String() {
		t.Fatalf("core.New learned a different query:\n%s\nvs\n%s", tree.String(), shimTree.String())
	}
	if stats.Totals().MQ != shimStats.Totals().MQ || stats.Totals().ReducedTotal != shimStats.Totals().ReducedTotal {
		t.Fatalf("stats diverged: %+v vs %+v", stats.Totals(), shimStats.Totals())
	}
}
