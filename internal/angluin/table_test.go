package angluin

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// idBatchTeacher answers from a target DFA through the ID seam only,
// reading each word back from the Words it shares with the learner into
// a reused buffer; its answer slice is reused too, so a wave costs the
// teacher no allocation.
type idBatchTeacher struct {
	perfectTeacher
	words *Words
	buf   []string
	out   []bool
}

func (t *idBatchTeacher) MemberID(id int32) (bool, error) {
	t.buf = t.words.AppendWord(t.buf[:0], id)
	return t.target.Accepts(t.buf), nil
}

func (t *idBatchTeacher) MemberBatchIDs(ids []int32) ([]bool, error) {
	t.out = t.out[:0]
	for _, id := range ids {
		v, _ := t.MemberID(id)
		t.out = append(t.out, v)
	}
	return t.out, nil
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

// tableRun is one finished L* run: its result and its observation
// table's rows, keyed by prefix word, for every S and S·Σ prefix.
type tableRun struct {
	d     *pathre.DFA
	stats Stats
	rows  map[string]string
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
	rows := map[string]string{}
	snap := func(id int32) {
		bits := l.rowEnts[l.rowOf[id]].bits
		if len(bits) != len(l.e) {
			t.Fatalf("row %v has %d of %d columns after the run", words.Word(id), len(bits), len(l.e))
		}
		rows["/"+strings.Join(words.Word(id), "/")] = string(bits)
	}
	for _, sid := range l.s {
		snap(sid)
		for ai := range l.alphabet {
			snap(l.extID(sid, ai))
		}
	}
	return tableRun{d, st, rows}
}

// TestRowFillOracle is the row fill's oracle property. On random
// targets over alphabets of 1, 77 and 256 symbols, the same L* run
// through a serial Teacher (row calls walk and ask cell by cell),
// through SerialAdapter (prefill fills the rows from a word wave) and
// through an ID batch teacher (prefill fills them from an ID wave) must
// give the same dialogue, the same row bits for every S and S·Σ prefix
// and the same DFA. The two batch seams must agree on every Stats
// field, transport counters included.
func TestRowFillOracle(t *testing.T) {
	for _, nsym := range []int{1, 77, 256} {
		alpha := symbols(nsym)
		r := rand.New(rand.NewSource(int64(nsym)))
		for trial := 0; trial < 20; trial++ {
			target := randomDFA(r, alpha, 2+r.Intn(7))
			serialWords := NewWords(nil, alpha)
			serial := learnTable(t, alpha, &perfectTeacher{target}, serialWords)
			adaptWords := NewWords(nil, alpha)
			adapted := learnTable(t, alpha, SerialAdapter{T: &perfectTeacher{target}}, adaptWords)
			idWords := NewWords(nil, alpha)
			ids := learnTable(t, alpha, &idBatchTeacher{perfectTeacher: perfectTeacher{target}, words: idWords}, idWords)

			if w, diff := target.Distinguish(serial.d); diff {
				t.Fatalf("%d symbols, trial %d: serial run learned a wrong language, witness %v", nsym, trial, w)
			}
			if adapted.stats != ids.stats {
				t.Fatalf("%d symbols, trial %d: stats differ\nSerialAdapter %+v\nID batch      %+v",
					nsym, trial, adapted.stats, ids.stats)
			}
			if ids.stats.BatchRounds == 0 {
				t.Fatalf("%d symbols, trial %d: no wave reached the ID batch teacher", nsym, trial)
			}
			s, b := serial.stats, ids.stats
			b.BatchRounds, b.BatchedQueries = 0, 0
			if s != b {
				t.Fatalf("%d symbols, trial %d: dialogue differs\nserial %+v\nbatch  %+v", nsym, trial, serial.stats, ids.stats)
			}
			for name, run := range map[string]tableRun{"SerialAdapter": adapted, "ID batch": ids} {
				if len(run.rows) != len(serial.rows) {
					t.Fatalf("%d symbols, trial %d: %s table has %d rows, serial %d",
						nsym, trial, name, len(run.rows), len(serial.rows))
				}
				for p, bits := range serial.rows {
					if run.rows[p] != bits {
						t.Fatalf("%d symbols, trial %d: %s row %s = %q, serial %q",
							nsym, trial, name, p, run.rows[p], bits)
					}
				}
				if got, want := fmt.Sprint(run.d.Start, run.d.Accept, run.d.Trans), fmt.Sprint(serial.d.Start, serial.d.Accept, serial.d.Trans); got != want {
					t.Fatalf("%d symbols, trial %d: %s learned DFA %s, serial %s", nsym, trial, name, got, want)
				}
			}
			serialWords.Release()
			adaptWords.Release()
			idWords.Release()
		}
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
	l.s = append(l.s[:0], 0)
	l.rowEnt(0).inS = true
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
