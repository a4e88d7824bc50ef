package angluin

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// perfectTeacher answers from a known target DFA: the textbook minimally
// adequate teacher.
type perfectTeacher struct {
	target *pathre.DFA
}

func (t *perfectTeacher) Member(w []string) (bool, error) { return t.target.Accepts(w), nil }

func (t *perfectTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	w, diff := t.target.Distinguish(h)
	if !diff {
		return nil, true, nil
	}
	return w, false, nil
}

var alphabet = []string{"site", "regions", "africa", "asia", "europe", "item", "name"}

func learnPath(t *testing.T, path string, opts ...Option) (*pathre.DFA, Stats) {
	t.Helper()
	target := pathre.Compile(pathre.MustParsePath(path), alphabet)
	d, stats, err := Learn(alphabet, &perfectTeacher{target}, opts...)
	if err != nil {
		t.Fatalf("Learn(%s): %v", path, err)
	}
	if w, diff := target.Distinguish(d); diff {
		t.Fatalf("Learn(%s): learned wrong language, witness %v", path, w)
	}
	return d, stats
}

func TestLearnSimplePath(t *testing.T) {
	d, stats := learnPath(t, "/site/regions/asia")
	if d.NumStates() != 5 { // start, site, regions, asia(accept), dead
		t.Errorf("states = %d, want 5", d.NumStates())
	}
	if stats.MembershipQueries == 0 || stats.EquivalenceQueries == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestLearnAlternation(t *testing.T) {
	learnPath(t, "/site/regions/(europe|africa)/item")
}

func TestLearnDescendant(t *testing.T) {
	learnPath(t, "/site//name")
}

func TestLearnFigure8Target(t *testing.T) {
	// The paper's Figure 8 example: learning /site/regions/asia with a
	// positive counterexample <site><regions><asia> discovering states.
	d, _ := learnPath(t, "/site/regions/asia",
		WithInitialExample([]string{"site", "regions", "asia"}))
	if !d.Accepts([]string{"site", "regions", "asia"}) {
		t.Fatal("must accept the dropped example's path")
	}
	if d.Accepts([]string{"site", "regions"}) {
		t.Fatal("prefix must be rejected")
	}
}

func TestInitialExampleReducesEquivalenceQueries(t *testing.T) {
	target := "/site/regions/europe/item/name"
	_, without := learnPath(t, target)
	_, with := learnPath(t, target,
		WithInitialExample([]string{"site", "regions", "europe", "item", "name"}))
	if with.EquivalenceQueries > without.EquivalenceQueries {
		t.Errorf("seeding the example should not increase EQs: %d vs %d",
			with.EquivalenceQueries, without.EquivalenceQueries)
	}
}

func TestLearnEmptyAndUniversal(t *testing.T) {
	for _, p := range []pathre.Expr{pathre.None{}, pathre.Star{Sub: pathre.Any{}}} {
		target := pathre.Compile(p, alphabet)
		d, _, err := Learn(alphabet, &perfectTeacher{target})
		if err != nil {
			t.Fatalf("Learn(%v): %v", pathre.String(p), err)
		}
		if w, diff := target.Distinguish(d); diff {
			t.Fatalf("%v: wrong language, witness %v", pathre.String(p), w)
		}
	}
}

func TestMembershipCacheNoRepeats(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item"), alphabet)
	ct := &countingTeacher{perfectTeacher{target}, map[string]int{}}
	_, _, err := Learn(alphabet, ct)
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range ct.asked {
		if n > 1 {
			t.Fatalf("word %q asked %d times", w, n)
		}
	}
}

type countingTeacher struct {
	perfectTeacher
	asked map[string]int
}

func (t *countingTeacher) Member(w []string) (bool, error) {
	t.asked[strings.Join(w, "\x00")]++
	return t.perfectTeacher.Member(w)
}

func TestBadTeacherCaught(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site"), alphabet)
	// A teacher that always rejects hypotheses with a bogus counterexample.
	bt := teacherFuncs{
		member: target.Accepts,
		equiv: func(h *pathre.DFA) ([]string, bool) {
			return []string{"site"}, false // eventually non-distinguishing
		},
	}
	if _, _, err := Learn(alphabet, bt); err == nil {
		t.Fatal("inconsistent teacher must produce an error")
	}
	nt := teacherFuncs{
		member: target.Accepts,
		equiv:  func(h *pathre.DFA) ([]string, bool) { return nil, false },
	}
	if _, _, err := Learn(alphabet, nt); err == nil {
		t.Fatal("nil counterexample with not-ok must produce an error")
	}
}

type teacherFuncs struct {
	member func([]string) bool
	equiv  func(*pathre.DFA) ([]string, bool)
}

func (t teacherFuncs) Member(w []string) (bool, error) { return t.member(w), nil }
func (t teacherFuncs) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	ce, ok := t.equiv(h)
	return ce, ok, nil
}

func TestMaxEquivalenceQueries(t *testing.T) {
	// Target needs several EQs; cap at 1 must fail.
	target := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item"), alphabet)
	_, _, err := Learn(alphabet, &perfectTeacher{target}, WithMaxEquivalenceQueries(1))
	if err == nil {
		t.Skip("target learned in a single EQ; cap not exercised")
	}
}

// TestPropertyLearnsRandomTargets: L* learns random regular path targets
// exactly.
func TestPropertyLearnsRandomTargets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	small := []string{"a", "b", "c"}
	for i := 0; i < 60; i++ {
		e := randomExpr(r, 3)
		target := pathre.Compile(e, small)
		d, stats, err := Learn(small, &perfectTeacher{target})
		if err != nil {
			t.Fatalf("iter %d (%s): %v", i, pathre.String(e), err)
		}
		if w, diff := target.Distinguish(d); diff {
			t.Fatalf("iter %d (%s): wrong language, witness %v", i, pathre.String(e), w)
		}
		if d.Minimize().NumStates() != d.NumStates() {
			t.Fatalf("iter %d: L* hypothesis not minimal (%d vs %d)",
				i, d.NumStates(), d.Minimize().NumStates())
		}
		if stats.EquivalenceQueries > 50 {
			t.Fatalf("iter %d: too many EQs: %d", i, stats.EquivalenceQueries)
		}
	}
}

func randomExpr(r *rand.Rand, depth int) pathre.Expr {
	labels := []string{"a", "b", "c"}
	if depth <= 0 {
		return pathre.Lit{Label: labels[r.Intn(3)]}
	}
	switch r.Intn(6) {
	case 0:
		return pathre.Lit{Label: labels[r.Intn(3)]}
	case 1:
		return pathre.Any{}
	case 2:
		return pathre.Concat{Parts: []pathre.Expr{randomExpr(r, depth-1), randomExpr(r, depth-1)}}
	case 3:
		return pathre.Alt{Parts: []pathre.Expr{randomExpr(r, depth-1), randomExpr(r, depth-1)}}
	case 4:
		return pathre.Star{Sub: randomExpr(r, depth-1)}
	default:
		return pathre.Opt{Sub: randomExpr(r, depth-1)}
	}
}

// TestQueryComplexityPolynomial sanity-checks the O(kmn^2) bound from
// the paper's Section 8 discussion: MQ count stays within a generous
// polynomial envelope.
func TestQueryComplexityPolynomial(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item"), alphabet)
	_, stats, err := Learn(alphabet, &perfectTeacher{target})
	if err != nil {
		t.Fatal(err)
	}
	n := stats.HypothesisStates
	k := len(alphabet)
	m := 8 // longest counterexample bound here
	if stats.MembershipQueries > k*m*n*n {
		t.Fatalf("MQ = %d exceeds k*m*n^2 = %d", stats.MembershipQueries, k*m*n*n)
	}
}

// errTeacher fails every membership query with a fixed error; Learn and
// LearnKV must surface it unwrapped so callers can errors.Is it.
type errTeacher struct{ err error }

func (t errTeacher) Member(w []string) (bool, error) { return false, t.err }
func (t errTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return nil, false, t.err
}

func TestTeacherErrorPropagates(t *testing.T) {
	sentinel := errors.New("teacher walked away")
	if _, _, err := Learn(alphabet, errTeacher{sentinel}); !errors.Is(err, sentinel) {
		t.Fatalf("Learn error = %v, want %v", err, sentinel)
	}
	if _, _, err := LearnKV(alphabet, errTeacher{sentinel}); !errors.Is(err, sentinel) {
		t.Fatalf("LearnKV error = %v, want %v", err, sentinel)
	}
}
