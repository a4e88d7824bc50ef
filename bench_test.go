// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus component
// microbenchmarks for the substrates. Run:
//
//	go test -bench=. -benchmem
//
// To profile a benchmark, use go test's native pprof flags — the same
// capture the experiments runner exposes via -cpuprofile/-memprofile
// (see EXPERIMENTS.md, "Profiling methodology"):
//
//	go test -bench=BenchmarkAngluinLearn -benchmem \
//	    -cpuprofile cpu.out -memprofile mem.out .
//	go tool pprof -top -sample_index=alloc_objects mem.out
package repro

import (
	"context"
	"testing"

	"repro/internal/angluin"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/dataguide"
	"repro/internal/experiments"
	"repro/internal/pathre"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// --- Figure 15: expressive power ---

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatFig15(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 16: interaction counts, one sub-benchmark per query ---

func benchScenarios(b *testing.B, scenarios []*scenario.Scenario) {
	for _, s := range scenarios {
		s := s
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(), s, teacher.BestCase)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatalf("%s failed verification", s.ID)
				}
			}
		})
	}
}

func BenchmarkFigure16XMark(b *testing.B) { benchScenarios(b, xmark.Scenarios()) }

func BenchmarkFigure16XMP(b *testing.B) { benchScenarios(b, xmp.Scenarios()) }

// --- Ablations (DESIGN.md): reduction rules on/off ---

func BenchmarkAblationRules(b *testing.B) {
	configs := []struct {
		name   string
		r1, r2 bool
	}{
		{"R1+R2", true, true},
		{"R1-only", true, false},
		{"R2-only", false, true},
		{"none", false, false},
	}
	s := xmark.ScenarioByID("Q1")
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			totalMQ := 0
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(), s, teacher.BestCase,
					core.WithR1(c.r1), core.WithR2(c.r2))
				if err != nil {
					b.Fatal(err)
				}
				totalMQ += res.Stats.Totals().MQ
			}
			b.ReportMetric(float64(totalMQ)/float64(b.N), "MQ/op")
		})
	}
}

// BenchmarkAblationR1Source compares instance-backed R1 with the
// DTD-metadata filter (the paper's prototype used Relax NG) and a
// strong-DataGuide filter (the paper's "Graph Schema" footnote).
func BenchmarkAblationR1Source(b *testing.B) {
	s := xmark.ScenarioByID("Q13")
	guide := dataguide.Build(s.Doc())
	for _, mode := range []string{"instance", "dtd", "guide"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var opts []core.Option
			if mode == "dtd" {
				opts = append(opts, core.WithR1Filter(xmark.DTD()))
			}
			if mode == "guide" {
				opts = append(opts, core.WithR1Filter(guide))
			}
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(), s, teacher.BestCase, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// BenchmarkAblationCounterexamplePolicy compares best- vs worst-case
// teacher answers (Figure 16's bracketed numbers).
func BenchmarkAblationCounterexamplePolicy(b *testing.B) {
	s := xmp.ScenarioByID("Q9")
	for _, pol := range []struct {
		name string
		p    teacher.Policy
	}{{"best", teacher.BestCase}, {"worst", teacher.WorstCase}} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			ces := 0
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(), s, pol.p)
				if err != nil {
					b.Fatal(err)
				}
				ces += res.Stats.Totals().CE
			}
			b.ReportMetric(float64(ces)/float64(b.N), "CE/op")
		})
	}
}

// BenchmarkAblationLearner compares L* and Kearns-Vazirani inside the
// full engine (membership-query load per session).
func BenchmarkAblationLearner(b *testing.B) {
	s := xmark.ScenarioByID("Q13")
	for _, mode := range []string{"lstar", "kv"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			asked, ces, reduced := 0, 0, 0
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(context.Background(), s, teacher.BestCase,
					core.WithKVLearner(mode == "kv"))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("verification failed")
				}
				asked += res.Stats.Totals().MQ
				ces += res.Stats.Totals().CE
				reduced += res.Stats.Totals().ReducedTotal
			}
			b.ReportMetric(float64(asked)/float64(b.N), "MQ/op")
			b.ReportMetric(float64(ces)/float64(b.N), "CE/op")
			b.ReportMetric(float64(reduced)/float64(b.N), "reduced/op")
		})
	}
}

// --- substrate microbenchmarks ---

var benchAlphabet = []string{"site", "regions", "africa", "asia", "australia",
	"europe", "namerica", "samerica", "item", "name", "description", "price"}

func BenchmarkPathCompile(b *testing.B) {
	e := pathre.MustParsePath("/site/regions/(europe|africa)/item/name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathre.Compile(e, benchAlphabet)
	}
}

func BenchmarkDFAFromDFA(b *testing.B) {
	d := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item/name"), benchAlphabet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathre.FromDFA(d)
	}
}

type perfectTeacher struct{ target *pathre.DFA }

func (t perfectTeacher) Member(w []string) (bool, error) { return t.target.Accepts(w), nil }
func (t perfectTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	w, diff := t.target.Distinguish(h)
	if !diff {
		return nil, true, nil
	}
	return w, false, nil
}

func BenchmarkAngluinLearn(b *testing.B) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item"), benchAlphabet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := angluin.Learn(benchAlphabet, perfectTeacher{target}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		doc := xmark.Generate(xmark.DefaultConfig())
		if doc.NumNodes() == 0 {
			b.Fatal("empty instance")
		}
	}
}

func BenchmarkDataGraphBuild(b *testing.B) {
	doc := xmark.Generate(xmark.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := datagraph.New(doc, datagraph.DefaultConfig())
		if g.VEdgeCount() == 0 {
			b.Fatal("no v-equality edges")
		}
	}
}

func BenchmarkDataGraphCond(b *testing.B) {
	doc := xmark.Generate(xmark.DefaultConfig())
	g := datagraph.New(doc, datagraph.DefaultConfig())
	it := doc.NodesWithLabel("item")[0]
	c := doc.NodesWithLabel("category")[0]
	ctx := map[string]*xmldoc.Node{"c": c}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Cond(ctx, "i", it)
	}
}

func BenchmarkQueryEvaluation(b *testing.B) {
	s := xmark.ScenarioByID("Q9")
	doc := s.Doc()
	truth := s.Truth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := xq.NewEvaluator(doc)
		res, err := ev.Result(context.Background(), truth)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumNodes() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExtentComputation(b *testing.B) {
	s := xmark.ScenarioByID("Q9")
	doc := s.Doc()
	truth := s.Truth()
	ev := xq.NewEvaluator(doc)
	n := truth.VarNode("i9")
	person := doc.NodesWithLabel("person")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Extent(context.Background(), truth, n, xq.Env{"p9": person}); err != nil {
			b.Fatal(err)
		}
	}
}
