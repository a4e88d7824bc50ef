//go:build !race

package xq_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestFreshEvaluatorResultAllocs pins what a fresh evaluator over a
// shared index allocates to build a result: its node values come from
// the index's column, its operand paths are walked over the index
// columns with no per-evaluator memo, and its bindings come from a plan
// compiled into small arena chunks, so a one-level query with a value
// predicate over a 4x XMark instance stays under a bound set by the
// query, not by the document (a dense per-evaluator memo of node values
// would take 528 KB on this instance, and a memo of each candidate's
// operand path took about 14 KB of the 22 KB a run allocated before;
// a run now allocates about 7 KB). The result must also be exact, so
// the bound covers real output.
// (Build-tagged out under -race: the detector's instrumentation
// allocates.)
func TestFreshEvaluatorResultAllocs(t *testing.T) {
	doc := largeXMark(100)
	ix := xq.NewIndex(doc)
	tree := xq.MustParseQuery(`for $p in /site/people/person where data($p/@id) = "person7" return <r>$p/name</r>`)
	ctx := context.Background()
	run := func() *xmldoc.Document {
		res, err := xq.NewEvaluatorWithIndex(ix).Result(ctx, tree)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if got := xmldoc.XMLString(run().DocNode()); got != "<r><name>"+doc.NodesWithLabel("person")[7].FirstChildNamed("name").Text()+"</name></r>" {
		t.Fatalf("result %q", got)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 16<<10 {
		t.Errorf("fresh-evaluator Result allocates %d bytes per run, want < 16 KiB", perRun)
	}
}
