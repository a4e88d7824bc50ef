package angluin

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// idTeacher answers from a target DFA through the ID seam, reading
// each word back from the Words it shares with the learner into a
// reused buffer.
type idTeacher struct {
	perfectTeacher
	words *Words
	buf   []string
}

func (t *idTeacher) MemberID(id int32) (bool, error) {
	t.buf = t.words.AppendWord(t.buf[:0], id)
	return t.target.Accepts(t.buf), nil
}

// symbols returns n distinct symbols.
func symbols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%03d", i)
	}
	return out
}

// randomDFA draws a complete DFA with n states over alpha, shaped like
// a path language: from each state most symbols lead to one default
// successor and a few to random others.
func randomDFA(r *rand.Rand, alpha []string, n int) *pathre.DFA {
	d := pathre.NewDFA(alpha, n)
	for q := 0; q < n; q++ {
		d.Accept[q] = r.Intn(3) == 0
		def := r.Intn(n)
		for a := range alpha {
			d.Trans[q][a] = def
			if r.Intn(6) == 0 {
				d.Trans[q][a] = r.Intn(n)
			}
		}
	}
	return d
}

// tableRun is one finished L* run: its result, its observation
// table's rows, keyed by prefix word, for every S and S·Σ prefix (a
// sink extension reads the sink row), and the number of S·Σ prefixes
// that were sinks.
type tableRun struct {
	d     *pathre.DFA
	stats Stats
	rows  map[string]string
	sinks int
}

// learnTable runs L* to the end over a caller-owned Words and snapshots
// the observation table before the learner's buffers go back to a
// scratch.
func learnTable(t *testing.T, alpha []string, teach Teacher, words *Words) tableRun {
	t.Helper()
	l, err := newLearner(alpha, teach, WithWords(words))
	if err != nil {
		t.Fatal(err)
	}
	l.adopt(new(scratch))
	l.grow()
	d, st, err := l.run()
	if err != nil {
		t.Fatal(err)
	}
	run := tableRun{d: d, stats: st, rows: map[string]string{}}
	snap := func(word []string, bits []byte) {
		if len(bits) != len(l.e) {
			t.Fatalf("row %v has %d of %d columns after the run", word, len(bits), len(l.e))
		}
		run.rows["/"+strings.Join(word, "/")] = string(bits)
	}
	for _, sid := range l.s {
		snap(words.Word(sid), l.rowEnts[l.rowOf[sid]].bits)
		for ai, a := range l.alphabet {
			if eid := l.ext(sid, ai); eid >= 0 {
				snap(words.Word(eid), l.rowEnts[l.rowOf[eid]].bits)
			} else {
				snap(append(words.Word(sid), a), l.sinkRow())
				run.sinks++
			}
		}
	}
	return run
}

// TestRowFillOracle is the row fill's oracle property. On random
// targets over alphabets of 1, 77 and 256 symbols:
//   - the same L* run through a plain Teacher (asked words) and through
//     an ID teacher (asked word IDs) gives the same dialogue, the same
//     row bits for every S and S·Σ prefix and the same DFA;
//   - on a target with a prefix-closed dead region, a run whose teacher
//     deduces the region gives the plain run's S, row bits and DFA,
//     with every sink extension reading the sink row, and asks fewer
//     words.
func TestRowFillOracle(t *testing.T) {
	sinks := 0
	for _, nsym := range []int{1, 77, 256} {
		alpha := symbols(nsym)
		r := rand.New(rand.NewSource(int64(nsym)))
		for trial := 0; trial < 20; trial++ {
			at := fmt.Sprintf("%d symbols, trial %d", nsym, trial)
			target := randomDFA(r, alpha, 2+r.Intn(7))
			serialWords := NewWords(nil, alpha)
			serial := learnTable(t, alpha, &perfectTeacher{target}, serialWords)
			idWords := NewWords(nil, alpha)
			ids := learnTable(t, alpha, &idTeacher{perfectTeacher: perfectTeacher{target}, words: idWords}, idWords)
			if w, diff := target.Distinguish(serial.d); diff {
				t.Fatalf("%s: serial run learned a wrong language, witness %v", at, w)
			}
			if serial.stats != ids.stats {
				t.Fatalf("%s: dialogue differs\nserial %+v\nID     %+v", at, serial.stats, ids.stats)
			}
			sameTable(t, at+", ID teacher", ids, serial)

			dtarget := deadRegionTarget(r, alpha)
			refWords := NewWords(nil, alpha)
			ref := learnTable(t, alpha, &perfectTeacher{dtarget}, refWords)
			dedWords := NewWords(nil, alpha)
			ded := learnTable(t, alpha, deducingTeacher{&regionTeacher{target: dtarget, words: dedWords}}, dedWords)
			sameTable(t, at+", deducing teacher", ded, ref)
			if a, b := ded.stats, ref.stats; a.EquivalenceQueries != b.EquivalenceQueries ||
				a.HypothesisStates != b.HypothesisStates || a.MembershipQueries > b.MembershipQueries {
				t.Fatalf("%s: deducing dialogue %+v, reference %+v", at, a, b)
			}
			if ref.sinks != 0 {
				t.Fatalf("%s: a run without a Deducer read %d sink rows", at, ref.sinks)
			}
			sinks += ded.sinks
			for _, w := range []*Words{serialWords, idWords, refWords, dedWords} {
				w.Release()
			}
		}
	}
	if sinks == 0 {
		t.Fatal("no run read a sink row")
	}
}

// sameTable fails unless run has want's rows and DFA.
func sameTable(t *testing.T, at string, run, want tableRun) {
	t.Helper()
	if len(run.rows) != len(want.rows) {
		t.Fatalf("%s: table has %d rows, want %d", at, len(run.rows), len(want.rows))
	}
	for p, bits := range want.rows {
		if run.rows[p] != bits {
			t.Fatalf("%s: row %s = %q, want %q", at, p, run.rows[p], bits)
		}
	}
	if got, want := fmt.Sprint(run.d.Start, run.d.Accept, run.d.Trans), fmt.Sprint(want.d.Start, want.d.Accept, want.d.Trans); got != want {
		t.Fatalf("%s: learned DFA %s, want %s", at, got, want)
	}
}

// TestHypothesisNotClosed: a hypothesis requested from a table that is
// not closed fails with ErrNotClosed naming the extension whose row S
// lacks.
func TestHypothesisNotClosed(t *testing.T) {
	alpha := []string{"a", "b"}
	target := pathre.Compile(pathre.MustParsePath("/a"), alpha)
	words := NewWords(nil, alpha)
	defer words.Release()
	l, err := newLearner(alpha, &perfectTeacher{target}, WithWords(words))
	if err != nil {
		t.Fatal(err)
	}
	l.adopt(new(scratch))
	l.grow()
	// S = {ε}, E = {ε}: row(ε) = 0, row(a) = 1, so the table is not
	// closed and close() was never run.
	l.s = l.s[:0]
	l.addPrefix(0)
	l.e = [][]string{{}}
	l.eSyms = [][]int32{{}}
	_, err = l.hypothesis()
	if !errors.Is(err, ErrNotClosed) {
		t.Fatalf("hypothesis err = %v, want %v", err, ErrNotClosed)
	}
	if !strings.Contains(err.Error(), `"/a"`) {
		t.Errorf("err = %v, want it to name the extension /a", err)
	}
}
