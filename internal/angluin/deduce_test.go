package angluin

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// deadRegionTarget builds a random target over alph with a sink: state
// 0 rejects and loops on every symbol, so the words reaching it form a
// prefix-closed dead region, the shape of rule R1's unrealizable paths.
func deadRegionTarget(r *rand.Rand, alph []string) *pathre.DFA {
	n := 2 + r.Intn(6)
	d := pathre.NewDFA(alph, n)
	d.Start = 1
	for q := 1; q < n; q++ {
		d.Accept[q] = r.Intn(3) == 0
		for _, a := range alph {
			if r.Intn(3) == 0 {
				d.Trans[q][d.SymIndex(a)] = 0
			} else {
				d.Trans[q][d.SymIndex(a)] = 1 + r.Intn(n-1)
			}
		}
	}
	return d
}

// regionTeacher answers from the target over the Words the learner
// runs over. It caches answers per word, like the P-Learner, so asked
// records each distinct word the teacher answered, in first-asked
// order. Wrapped as a deducingTeacher it is also the target's
// Deducer, and dead records each word Deduced reported.
type regionTeacher struct {
	target *pathre.DFA
	words  *Words
	// failEQ makes the given equivalence query (1-based) fail with
	// errRestart, as a session does when it must restart L*.
	failEQ, eqs int

	answered map[int32]bool
	asked    []string
	dead     []string
	buf      []string
}

var errRestart = errors.New("restart")

func (t *regionTeacher) state(w []string) int {
	q := t.target.Start
	for _, a := range w {
		q = t.target.Trans[q][t.target.SymIndex(a)]
	}
	return q
}

func (t *regionTeacher) Member(w []string) (bool, error) {
	return t.MemberID(t.words.Intern(w))
}

func (t *regionTeacher) MemberID(id int32) (bool, error) {
	t.buf = t.words.AppendWord(t.buf[:0], id)
	if _, ok := t.answered[id]; !ok {
		if t.answered == nil {
			t.answered = map[int32]bool{}
		}
		t.answered[id] = true
		t.asked = append(t.asked, strings.Join(t.buf, "/"))
	}
	return t.target.Accepts(t.buf), nil
}

func (t *regionTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	t.eqs++
	if t.eqs == t.failEQ {
		return nil, false, errRestart
	}
	w, diff := t.target.Distinguish(h)
	return w, !diff, nil
}

// deducingTeacher adds the Deducer extension to a regionTeacher.
type deducingTeacher struct{ *regionTeacher }

func (t deducingTeacher) DeadStep(p, sym int32) bool {
	t.buf = t.words.AppendWord(t.buf[:0], p)
	q := t.state(t.buf)
	return t.target.Trans[q][t.target.SymIndex(t.words.Sym(sym))] == 0
}

func (t deducingTeacher) Deduced(anchor, rest int32) {
	t.dead = append(t.dead, strings.Join(t.words.AppendDeadWord(nil, anchor, rest), "/"))
}

// batchRegionTeacher adds the ID batch form.
type batchRegionTeacher struct{ *regionTeacher }

func (t batchRegionTeacher) MemberBatchIDs(ids []int32) ([]bool, error) {
	out := make([]bool, len(ids))
	for i, id := range ids {
		v, err := t.MemberID(id)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

type batchDeducingTeacher struct {
	batchRegionTeacher
	deducingTeacher
}

func (t batchDeducingTeacher) Member(w []string) (bool, error) { return t.batchRegionTeacher.Member(w) }
func (t batchDeducingTeacher) MemberID(id int32) (bool, error) {
	return t.batchRegionTeacher.MemberID(id)
}
func (t batchDeducingTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return t.batchRegionTeacher.Equivalent(h)
}

// regionRun is one learning run's observable outcome.
type regionRun struct {
	hyp   string
	stats Stats
	rt    *regionTeacher
	nodes int // the Words' node count
}

// runRegion learns target with the given learner, protocol and teacher
// kind over one Words; with failEQ > 0 the first attempt aborts at that
// equivalence query and a second Learn restarts over the same Words.
func runRegion(t *testing.T, target *pathre.DFA, alph []string, kv, batched, deduce bool, failEQ int) regionRun {
	t.Helper()
	w := NewWords(nil, alph)
	defer w.Release()
	rt := &regionTeacher{target: target, words: w, failEQ: failEQ}
	var teacher Teacher
	switch {
	case batched && deduce:
		teacher = batchDeducingTeacher{batchRegionTeacher{rt}, deducingTeacher{rt}}
	case batched:
		teacher = batchRegionTeacher{rt}
	case deduce:
		teacher = deducingTeacher{rt}
	default:
		teacher = rt
	}
	learn := Learn
	if kv {
		learn = LearnKV
	}
	var total Stats
	for attempt := 0; ; attempt++ {
		h, stats, err := learn(alph, teacher, WithWords(w))
		total.MembershipQueries += stats.MembershipQueries
		total.EquivalenceQueries += stats.EquivalenceQueries
		if errors.Is(err, errRestart) && attempt == 0 {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return regionRun{hyp: fmt.Sprint(h.Start, h.Accept, h.Trans), stats: total, rt: rt, nodes: w.Len()}
	}
}

// TestDeductionMatchesReference is the differential check of the
// dead-region deduction: over random targets with a prefix-closed dead
// region, a learner whose teacher deduces the region must learn the
// same hypothesis as one whose teacher is asked every word, ask the
// teacher exactly the reference's live words in the same order, and
// report each of the reference's dead words to Deduced exactly once —
// for L* and KV, serial and batched, and across a restart over a reused
// Words.
func TestDeductionMatchesReference(t *testing.T) {
	alph := []string{"a", "b", "c"}
	r := rand.New(rand.NewSource(16))
	deduced := 0
	for trial := 0; trial < 60; trial++ {
		target := deadRegionTarget(r, alph)
		for _, kv := range []bool{false, true} {
			for _, batched := range []bool{false, true} {
				for _, failEQ := range []int{0, 2} {
					name := fmt.Sprintf("trial %d kv=%v batched=%v failEQ=%d", trial, kv, batched, failEQ)
					ref := runRegion(t, target, alph, kv, batched, false, failEQ)
					got := runRegion(t, target, alph, kv, batched, true, failEQ)
					if got.hyp != ref.hyp {
						t.Fatalf("%s: hypothesis %s, reference %s", name, got.hyp, ref.hyp)
					}
					var live, dead []string
					for _, w := range ref.rt.asked {
						var word []string
						if w != "" {
							word = strings.Split(w, "/")
						}
						if ref.rt.state(word) == 0 {
							dead = append(dead, w)
						} else {
							live = append(live, w)
						}
					}
					if !slices.Equal(got.rt.asked, live) {
						t.Fatalf("%s: teacher asked %v, reference's live words %v", name, got.rt.asked, live)
					}
					slices.Sort(dead)
					gotDead := slices.Clone(got.rt.dead)
					slices.Sort(gotDead)
					if !slices.Equal(gotDead, dead) {
						t.Fatalf("%s: deduced %v, reference's dead words %v", name, got.rt.dead, dead)
					}
					if got.stats.EquivalenceQueries != ref.stats.EquivalenceQueries {
						t.Fatalf("%s: %d equivalence queries, reference %d", name,
							got.stats.EquivalenceQueries, ref.stats.EquivalenceQueries)
					}
					// Within one Learn the learner asks each word once, so
					// without a restart its count is the teacher's; deduced
					// words are not counted.
					if failEQ == 0 && (got.stats.MembershipQueries != len(live) || ref.stats.MembershipQueries != len(ref.rt.asked)) {
						t.Fatalf("%s: %d membership queries for %d live words (reference %d for %d)", name,
							got.stats.MembershipQueries, len(live), ref.stats.MembershipQueries, len(ref.rt.asked))
					}
					if got.nodes > ref.nodes {
						t.Fatalf("%s: %d trie nodes, reference %d", name, got.nodes, ref.nodes)
					}
					deduced += len(got.rt.dead)
				}
			}
		}
	}
	if deduced == 0 {
		t.Fatal("no trial deduced a dead word")
	}
}
