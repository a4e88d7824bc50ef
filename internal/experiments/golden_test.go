package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/teacher"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden learned-query and table files")

// TestGoldenTables pins every count the paper's tables report: Figure
// 15, the three Figure 16 tables with the worst-case counterexample
// brackets, and both ablation tables, rendered through the same
// Run*/Format* calls as `experiments -table all -worst` (the
// wall-clock teacher-latency appendix is left out). A change that
// moves one MQ, CE, CB, OB or Reduced count fails against
// testdata/tables.golden. Regenerate with -update.
func TestGoldenTables(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	b.WriteString(FormatFig15() + "\n")
	for _, tab := range []struct {
		title string
		scns  []*scenario.Scenario
	}{
		{"Figure 16 (top): XMark — the number of interactions for learning", XMarkScenarios()},
		{"Figure 16 (bottom): XML Query Use Case \"XMP\"", XMPScenarios()},
		{"Use Case \"R\" (beyond the paper: constructive rows for Figure 15's 14/18 claim)", UCRScenarios()},
	} {
		rows, err := RunFig16(ctx, tab.scns, true, 2)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatFig16(tab.title, rows) + "\n")
	}
	for _, scns := range [][]*scenario.Scenario{XMarkScenarios(), XMPScenarios()} {
		rows, err := RunAblation(ctx, scns, 2)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatAblation(rows) + "\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("tables drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenLearnedQueries pins the exact learned query of every
// benchmark scenario: learning is deterministic (seeded instance,
// deterministic teacher), so any drift in the learner shows up as a
// diff against testdata/golden/<id>.txt. Regenerate with -update.
func TestGoldenLearnedQueries(t *testing.T) {
	for _, s := range allSuites() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			res, err := scenario.Run(context.Background(), s, teacher.BestCase)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Tree.String()
			path := filepath.Join("testdata", "golden", s.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("learned query drifted from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestLearningDeterministic: two independent runs of the same scenario
// produce byte-identical queries and interaction counts.
func TestLearningDeterministic(t *testing.T) {
	for _, id := range []string{"XMark-Q9", "XMP-Q5"} {
		var s *scenario.Scenario
		for _, c := range append(XMarkScenarios(), XMPScenarios()...) {
			if c.ID == id {
				s = c
			}
		}
		a, err := scenario.Run(context.Background(), s, teacher.BestCase)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scenario.Run(context.Background(), s, teacher.BestCase)
		if err != nil {
			t.Fatal(err)
		}
		if a.Tree.String() != b.Tree.String() {
			t.Fatalf("%s: nondeterministic learned query", id)
		}
		if a.Stats.Totals() != b.Stats.Totals() {
			t.Fatalf("%s: nondeterministic interaction counts", id)
		}
	}
}
