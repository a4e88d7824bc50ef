package xq_test

import (
	"context"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestJoinProbeWork pins the work of the joins the compiled executor
// answers by relay-level and range probes. On a 4x cold-large
// instance, one Result of XMark Q9 (a relay join of every person with
// every item) and of Q11 (an ordering join of every person with every
// open auction's initial bid), truth and learned tree alike, may run
// at most a tenth as many conjunction checks as a nested loop tests
// (outer binding, candidate) pairs.
func TestJoinProbeWork(t *testing.T) {
	doc := largeXMark(100)
	ix := xq.NewIndex(doc)
	persons := len(ix.Nodes("person"))
	ctx := context.Background()
	for _, c := range []struct {
		id, inner string
	}{{"XMark-Q9", "item"}, {"XMark-Q11", "initial"}} {
		pairs := persons * len(ix.Nodes(c.inner))
		s := xmark.ScenarioByID(c.id)
		for k, tree := range []*xq.Tree{s.Truth(), goldenTree(t, c.id)} {
			ev := xq.NewEvaluatorWithIndex(ix)
			var err error
			n := xq.CountConjunctions(func() { _, err = ev.Result(ctx, tree) })
			if err != nil {
				t.Fatalf("%s tree %d: %v", c.id, k, err)
			}
			t.Logf("%s tree %d: %d conjunction checks, %d pairs", c.id, k, n, pairs)
			if n > pairs/10 {
				t.Errorf("%s tree %d: one Result runs %d conjunction checks, want at most %d (a tenth of %d pairs)", c.id, k, n, pairs/10, pairs)
			}
		}
	}
}

// TestProbesAdmitSupersets: on the paper instance and the four 4x
// cold-large instances (generator seeds 100, 200, 400, 500), every
// plan of every XMark truth and learned tree runs with each candidate
// a probe rejects checked unprobed: it must fail its level's full
// conjunction, or a rejected relay node the relay's atoms. Range and
// relay-level probes must both reject candidates somewhere.
func TestProbesAdmitSupersets(t *testing.T) {
	docs := []*xmldoc.Document{xmark.Scenarios()[0].Doc()}
	if !testing.Short() {
		for _, seed := range []int64{100, 200, 400, 500} {
			docs = append(docs, largeXMark(seed))
		}
	}
	ranged, relayed := 0, 0
	for _, doc := range docs {
		for _, s := range xmark.Scenarios() {
			for _, tree := range []*xq.Tree{s.Truth(), goldenTree(t, s.ID)} {
				r, l := xq.CheckProbeSuperset(t, doc, tree)
				ranged, relayed = ranged+r, relayed+l
			}
		}
	}
	t.Logf("rejected candidates checked: %d under range probes, %d under relay-level probes", ranged, relayed)
	if ranged == 0 || relayed == 0 {
		t.Errorf("range probes rejected %d candidates, relay-level probes %d: want both above zero", ranged, relayed)
	}
}
