package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
)

// TestMinimizeMatchesReference checks condition minimization against
// the trial loop it replaced (reference_test.go): every fragment must
// keep the same predicates in the same order.
func TestMinimizeMatchesReference(t *testing.T) {
	mc, detach := core.CheckMinimizeReference()
	defer detach()
	learnReferenceScenarios(t)
	for _, msg := range mc.Errors {
		t.Error(msg)
	}
	t.Logf("minimizeConds calls checked, by predicate count: %v", mc.ByLen)
	if mc.ByLen[1] == 0 || mc.ByLen[2] == 0 {
		t.Errorf("calls by predicate count %v: want calls with one and with two predicates", mc.ByLen)
	}
}

// TestTrimMatchesReference checks the trim built from the accepted
// instance paths against the product it replaced (reference_test.go):
// every fragment's trimmed automaton, and a pair's anchor automaton and
// last labels, must be the reference's state for state.
func TestTrimMatchesReference(t *testing.T) {
	tc, detach := core.CheckTrimReference()
	defer detach()
	learnReferenceScenarios(t)
	for _, msg := range tc.Errors {
		t.Error(msg)
	}
	t.Logf("trims checked: %d plain, %d pair", tc.Plain, tc.Pair)
	if tc.Plain == 0 || tc.Pair == 0 {
		t.Errorf("%d plain and %d pair trims: want both kinds", tc.Plain, tc.Pair)
	}
}

// learnReferenceScenarios learns the 38 paper scenarios under both
// teacher policies and, unless -short, the 19 XMark scenarios on the
// four 4x instances of the benchmark's new-document workload. Every
// learned query must verify.
func learnReferenceScenarios(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	run := func(name string, s *scenario.Scenario, pol teacher.Policy) {
		res, err := scenario.Run(ctx, s, pol)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if !res.Verified {
			t.Errorf("%s: learned query does not verify", name)
		}
	}
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	scens = append(scens, ucr.Scenarios()...)
	if len(scens) != 38 {
		t.Fatalf("%d scenarios, want 38", len(scens))
	}
	for _, pol := range []teacher.Policy{teacher.BestCase, teacher.WorstCase} {
		for _, s := range scens {
			run(fmt.Sprintf("%s/policy%d", s.ID, pol), s, pol)
		}
	}
	if !testing.Short() {
		for _, seed := range []int64{100, 200, 400, 500} {
			cfg := xmark.DefaultConfig()
			cfg.Seed = seed
			cfg.Categories *= 4
			cfg.ItemsPerRegion *= 4
			cfg.People *= 4
			cfg.OpenAuctions *= 4
			cfg.ClosedAuctions *= 4
			doc := xmark.Generate(cfg)
			for _, b := range xmark.Scenarios() {
				s := *b
				s.Doc = func() *xmldoc.Document { return doc }
				run(fmt.Sprintf("%s@seed%d", s.ID, seed), &s, teacher.BestCase)
			}
		}
	}
}
