package dataguide

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

func TestGuideAcceptsAllRealizedPaths(t *testing.T) {
	doc := xmark.Generate(xmark.DefaultConfig())
	g := Build(doc)
	doc.Walk(func(n *xmldoc.Node) bool {
		if n.Kind == xmldoc.ElementNode || n.Kind == xmldoc.AttributeNode {
			if !g.AcceptsPath(n.Path()) {
				t.Fatalf("guide rejects realized path %s", n.PathString())
			}
		}
		return true
	})
	if g.AcceptsPath([]string{"site", "nonsense"}) {
		t.Fatal("guide accepted an unrealized path")
	}
	if !g.AcceptsPath(nil) {
		t.Fatal("the empty path is always realizable")
	}
}

func TestGuideSizeBoundedByStructure(t *testing.T) {
	small := Build(xmark.Generate(xmark.DefaultConfig()))
	cfg := xmark.DefaultConfig()
	cfg.ItemsPerRegion = 12
	cfg.People = 60
	big := Build(xmark.Generate(cfg))
	// The DataGuide grows with structure, not data volume: doubling the
	// instance adds at most a couple of optional-shape paths.
	if big.NumPaths() > small.NumPaths()+10 {
		t.Fatalf("guide grew with data volume: %d vs %d", big.NumPaths(), small.NumPaths())
	}
}

func TestGuidePathsEnumeration(t *testing.T) {
	doc := xmldoc.MustParse(`<a k="1"><b><c/></b><b/></a>`)
	g := Build(doc)
	got := g.Paths()
	want := [][]string{{"a"}, {"a", "@k"}, {"a", "b"}, {"a", "b", "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paths = %v", got)
	}
	if g.NumPaths() != 4 {
		t.Fatalf("NumPaths = %d", g.NumPaths())
	}
}

// TestGuideAsR1Filter: learning with a DataGuide-backed R1 behaves like
// the instance index (the guide summarizes exactly the realized paths).
func TestGuideAsR1Filter(t *testing.T) {
	s := xmark.ScenarioByID("Q13")
	guide := Build(s.Doc())
	res, err := scenario.Run(context.Background(), s, teacher.BestCase, core.WithR1Filter(guide))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("DataGuide-filtered learning failed to verify")
	}
	base, err := scenario.Run(context.Background(), s, teacher.BestCase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Totals().MQ != base.Stats.Totals().MQ ||
		res.Stats.Totals().ReducedR1 != base.Stats.Totals().ReducedR1 {
		t.Fatalf("guide filter diverged from instance index: %+v vs %+v",
			res.Stats.Totals(), base.Stats.Totals())
	}
}

// TestGuideVsDTDFilter: the DTD admits more paths than the instance
// realizes (optional structures), so DTD-backed R1 reduces fewer
// queries.
func TestGuideVsDTDFilter(t *testing.T) {
	s := xmark.ScenarioByID("Q13")
	guide := Build(s.Doc())
	var d *dtd.DTD = xmark.DTD()
	for _, p := range guide.Paths() {
		if !d.AcceptsPath(p) {
			t.Fatalf("instance path %v outside the DTD", p)
		}
	}
	_ = xq.Env{}
}

// TestGuideStepPath: stepping a path through the guide label by label
// agrees with AcceptsPath at every prefix, and a rejected path stays
// rejected under every extension — the prefix closure rule R1's
// deduction rests on.
func TestGuideStepPath(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		labels []string
	}{
		{`<a k="1"><b><c/></b><b/></a>`, []string{"a", "b", "c", "@k", "zz"}},
		{`<r><x><x><x/></x></x><y j="2"/></r>`, []string{"r", "x", "y", "@j", "@k"}},
		{`<site><regions><asia><item id="i"/></asia></regions></site>`, []string{"site", "regions", "asia", "item", "@id"}},
	} {
		g := Build(xmldoc.MustParse(tc.doc))
		var walk func(path []string, st int32)
		walk = func(path []string, st int32) {
			if got, want := st >= 0, g.AcceptsPath(path); got != want {
				t.Fatalf("%s: StepPath says %v for %v, AcceptsPath %v", tc.doc, got, path, want)
			}
			if len(path) == 4 {
				return
			}
			for _, l := range tc.labels {
				next := int32(-1)
				if st >= 0 {
					next = g.StepPath(st, l)
				}
				ext := append(path[:len(path):len(path)], l)
				if st < 0 && g.AcceptsPath(ext) {
					t.Fatalf("%s: AcceptsPath rejects %v but accepts its extension %v", tc.doc, path, ext)
				}
				walk(ext, next)
			}
		}
		walk(nil, 0)
	}
}
