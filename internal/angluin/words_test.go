package angluin

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// TestTriePropertyAgainstStringJoinOracle drives the Words trie with
// randomized alphabets and words, in both the dense and the packed-map
// child regimes, and checks word identity against the string-join
// oracle the trie replaced: two words get the same ID iff their joined
// keys are equal, and every ID resolves back (Word) to exactly the
// oracle's word. Words are interned both from strings (Intern) and from
// alphabet positions (InternAlpha); the two must agree. Symbols are
// non-empty by construction — the trie distinguishes the empty word
// from a one-empty-symbol word, a split the joined-string oracle
// conflates, and the learner's alphabets are document labels, never "".
func TestTriePropertyAgainstStringJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nsym := 1 + rng.Intn(denseAlphabetMax+40) // straddles the dense cutoff
		alphabet := make([]string, nsym)
		for i := range alphabet {
			alphabet[i] = "s" + strings.Repeat("x", rng.Intn(3)) + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('a'+i/260))
		}
		tab := NewSymbolTable()
		w := NewWords(tab, alphabet)
		if wantDense := nsym <= denseAlphabetMax; w.dense != wantDense {
			t.Fatalf("trial %d: dense = %v for %d symbols, want %v", trial, w.dense, nsym, wantDense)
		}

		idOf := map[string]int32{"": 0}
		var keys []string
		for i := 0; i < 120; i++ {
			n := rng.Intn(8)
			word := make([]string, n)
			pos := make([]int32, n)
			for j := range word {
				pos[j] = int32(rng.Intn(nsym))
				word[j] = alphabet[pos[j]]
			}
			key := strings.Join(word, "\x00")
			var id int32
			if i%2 == 0 {
				id = w.Intern(word)
			} else {
				id = w.InternAlpha(pos)
			}
			if prev, seen := idOf[key]; seen {
				if prev != id {
					t.Fatalf("trial %d: key %q got ID %d, previously %d", trial, key, id, prev)
				}
			} else {
				idOf[key] = id
				keys = append(keys, key)
			}
			if got := strings.Join(w.Word(id), "\x00"); got != key {
				t.Fatalf("trial %d: Word(%d) joins to %q, want %q", trial, id, got, key)
			}
			if int(w.node(id).depth) != n {
				t.Fatalf("trial %d: depth(%d) = %d, want %d", trial, id, w.node(id).depth, n)
			}
		}
		// Distinct keys must occupy distinct IDs (the trie is a perfect
		// intern), every ID is in range, and every recorded ID still
		// resolves to its word after all later insertions.
		ids := map[int32]string{}
		for _, key := range keys {
			id := idOf[key]
			if other, dup := ids[id]; dup {
				t.Fatalf("trial %d: ID %d shared by keys %q and %q", trial, id, key, other)
			}
			ids[id] = key
			if id < 0 || int(id) >= w.Len() {
				t.Fatalf("trial %d: ID %d outside [0, %d)", trial, id, w.Len())
			}
			if got := strings.Join(w.Word(id), "\x00"); got != key {
				t.Fatalf("trial %d: Word(%d) joins to %q after later inserts, want %q", trial, id, got, key)
			}
		}
		w.Release()
	}
}

// TestTrieSharedSymbolTable: two Words over one symbol table agree on
// symbol IDs, and a Words resolves symbols another interned first (the
// bundle-sharing case: fragments of one session, sessions of one spec).
func TestTrieSharedSymbolTable(t *testing.T) {
	tab := NewSymbolTable("a", "b")
	w1 := NewWords(tab, []string{"a", "b"})
	w2 := NewWords(tab, []string{"b", "c"})
	defer w1.Release()
	defer w2.Release()
	c1 := w1.Intern([]string{"c"})
	c2 := w2.Intern([]string{"c"})
	if w1.node(c1).sym != w2.node(c2).sym {
		t.Fatalf("shared table resolved c to different IDs")
	}
	if tab.Len() != 3 {
		t.Fatalf("table has %d symbols, want 3 (a, b, c)", tab.Len())
	}
	if tab.Sym(w1.node(w1.Intern([]string{"a"})).sym) != "a" {
		t.Fatalf("Sym(ID(a)) != a")
	}
}

// seamLog records, in order, every membership query a teacher double
// receives, as joined words; a batch round trip is bracketed by "[" and
// "]" so serial and batched logs never compare equal by accident.
type seamLog []string

func (g *seamLog) add(w []string) { *g = append(*g, strings.Join(w, "\x00")) }

// wordRecorder is a plain-word teacher that logs each word it is
// asked; wordBatchRecorder adds the word batch seam.
type wordRecorder struct {
	perfectTeacher
	log seamLog
}

func (r *wordRecorder) Member(w []string) (bool, error) {
	r.log.add(w)
	return r.perfectTeacher.Member(w)
}

type wordBatchRecorder struct{ *wordRecorder }

func (r wordBatchRecorder) MemberBatch(words [][]string) ([]bool, error) {
	r.log = append(r.log, "[")
	out := make([]bool, len(words))
	for i, w := range words {
		out[i], _ = r.Member(w)
	}
	r.log = append(r.log, "]")
	return out, nil
}

// idRecorder is an ID teacher: it receives word IDs only and logs the
// word each one resolves to in the Words it shares with the learner,
// checking that one word always comes with one ID and distinct words
// with distinct IDs.
type idRecorder struct {
	perfectTeacher
	t      *testing.T
	words  *Words
	log    seamLog
	idOf   map[string]int32 // joined word -> ID as delivered
	wordOf map[int32]string
}

func (r *idRecorder) record(id int32) []string {
	r.t.Helper()
	w := r.words.Word(id)
	joined := strings.Join(w, "\x00")
	if prev, ok := r.idOf[joined]; ok && prev != id {
		r.t.Errorf("word %q delivered as IDs %d and %d", joined, prev, id)
	}
	if prev, ok := r.wordOf[id]; ok && prev != joined {
		r.t.Errorf("ID %d delivered for both %q and %q", id, prev, joined)
	}
	r.idOf[joined], r.wordOf[id] = id, joined
	r.log.add(w)
	return w
}

func (r *idRecorder) MemberID(id int32) (bool, error) {
	return r.perfectTeacher.Member(r.record(id))
}

func (r *idRecorder) Member([]string) (bool, error) {
	return false, errors.New("idRecorder: the learner must prefer MemberID")
}

type idBatchRecorder struct{ *idRecorder }

func (r idBatchRecorder) MemberBatchIDs(ids []int32) ([]bool, error) {
	r.log = append(r.log, "[")
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i], _ = r.MemberID(id)
	}
	r.log = append(r.log, "]")
	return out, nil
}

func (r idBatchRecorder) MemberBatch([][]string) ([]bool, error) {
	return nil, errors.New("idBatchRecorder: the learner must prefer MemberBatchIDs")
}

// TestIDBatchIDsRoundTrip is the word-ID contract of the teacher seam.
// It learns one target through the plain word seam and through the ID
// seam, serially and batched, with L* and with KV, for both child
// regimes of the trie; the ID teacher learns twice over one Words. It
// checks that
//   - every ID delivered resolves, through Words.Word, to exactly the
//     word the plain-Teacher path receives at the same point of the
//     dialogue (the logs are equal, batch brackets included);
//   - a teacher offering both forms is asked through the ID forms only
//     (the ID doubles fail their word methods);
//   - one word always comes with one ID and distinct words with
//     distinct IDs, and the second Learn on one Words asks the same
//     words under the same IDs;
//   - the serial and batched dialogues are identical; KV asks every
//     probe alone, through MemberID or Member, even when the teacher
//     offers the batch forms.
func TestIDBatchIDsRoundTrip(t *testing.T) {
	learners := []struct {
		name  string
		learn func([]string, Teacher, ...Option) (*pathre.DFA, Stats, error)
	}{{"lstar", Learn}, {"kv", LearnKV}}
	for _, lr := range learners {
		for _, alpha := range [][]string{alphabet, wideAlphabet()} {
			roundTrip(t, lr.name, lr.learn, alpha)
		}
	}
}

func roundTrip(t *testing.T, name string, learn func([]string, Teacher, ...Option) (*pathre.DFA, Stats, error), alpha []string) {
	t.Helper()
	target := pathre.Compile(pathre.MustParsePath("/site/regions//item"), alpha)
	var dialogues [2]Stats
	var learned [2]*pathre.DFA
	for pi, batch := range []bool{false, true} {
		at := fmt.Sprintf("%s, alphabet %d, batch=%v", name, len(alpha), batch)
		plain := &wordRecorder{perfectTeacher: perfectTeacher{target}}
		plainWords := NewWords(nil, alpha)
		var plainT Teacher = plain
		if batch {
			plainT = wordBatchRecorder{plain}
		}
		plainD, plainSt, err := learn(alpha, plainT, WithWords(plainWords))
		plainWords.Release()
		if err != nil {
			t.Fatalf("%s, plain: %v", at, err)
		}

		words := NewWords(NewSymbolTable(), alpha)
		rec := &idRecorder{perfectTeacher: perfectTeacher{target}, t: t, words: words,
			idOf: map[string]int32{}, wordOf: map[int32]string{}}
		var teach Teacher = rec
		if batch {
			teach = idBatchRecorder{rec}
		}
		for run := 0; run < 2; run++ {
			before := len(rec.idOf)
			rec.log = rec.log[:0]
			d, st, err := learn(alpha, teach, WithWords(words))
			if err != nil {
				t.Fatalf("%s, run %d: %v", at, run, err)
			}
			if run == 1 && len(rec.idOf) != before {
				t.Errorf("%s: second Learn asked %d new words, want the same words", at, len(rec.idOf)-before)
			}
			if used := st.BatchRounds > 0; used != (batch && name == "lstar") {
				t.Fatalf("%s: %d batch rounds", at, st.BatchRounds)
			}
			if got, want := strings.Join(rec.log, "|"), strings.Join(plain.log, "|"); got != want {
				t.Fatalf("%s, run %d: ID seam delivered\n%q\nplain seam\n%q", at, run, got, want)
			}
			if st != plainSt {
				t.Fatalf("%s: stats %+v, plain seam %+v", at, st, plainSt)
			}
			if w, diff := d.Distinguish(plainD); diff {
				t.Fatalf("%s: seams learned different languages, witness %v", at, w)
			}
			dialogues[pi], learned[pi] = st, d
		}
		if len(rec.idOf) == 0 {
			t.Fatalf("%s: no queries recorded", at)
		}
		words.Release()
	}
	if w, diff := learned[0].Distinguish(learned[1]); diff {
		t.Fatalf("%s, alphabet %d: serial and batched learned different languages, witness %v", name, len(alpha), w)
	}
	a, b := dialogues[0], dialogues[1]
	if a.MembershipQueries != b.MembershipQueries || a.EquivalenceQueries != b.EquivalenceQueries ||
		a.Counterexamples != b.Counterexamples {
		t.Fatalf("%s, alphabet %d: dialogue diverged\nserial  %+v\nbatched %+v", name, len(alpha), a, b)
	}
}

// wideAlphabet is the test alphabet padded past denseAlphabetMax, so
// the trie runs on its packed-map child regime.
func wideAlphabet() []string {
	out := append([]string(nil), alphabet...)
	for i := 0; len(out) <= denseAlphabetMax; i++ {
		out = append(out, "pad"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	return out
}

// TestWordsAlphabetMismatch: a Words serves only the alphabet it was
// built for.
func TestWordsAlphabetMismatch(t *testing.T) {
	words := NewWords(nil, []string{"site", "name"})
	defer words.Release()
	target := pathre.Compile(pathre.MustParsePath("/site"), alphabet)
	if _, _, err := Learn(alphabet, &perfectTeacher{target}, WithWords(words)); !errors.Is(err, errWordsAlphabet) {
		t.Fatalf("Learn err = %v, want %v", err, errWordsAlphabet)
	}
	if _, _, err := LearnKV(alphabet, &perfectTeacher{target}, WithWords(words)); !errors.Is(err, errWordsAlphabet) {
		t.Fatalf("LearnKV err = %v, want %v", err, errWordsAlphabet)
	}
}

// TestIDTeacherNeedsWords: the ID forms of the seam mean nothing
// without the Words the IDs index, so both learners refuse an ID
// teacher or a Deducer that did not pass one.
func TestIDTeacherNeedsWords(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site"), alphabet)
	for name, teach := range map[string]Teacher{
		"IDTeacher": &idRecorder{perfectTeacher: perfectTeacher{target}, t: t},
		"Deducer":   deducingTeacher{&regionTeacher{target: target}},
	} {
		if _, _, err := Learn(alphabet, teach); !errors.Is(err, errIDsNeedWords) {
			t.Errorf("Learn with a bare %s: err = %v, want %v", name, err, errIDsNeedWords)
		}
		if _, _, err := LearnKV(alphabet, teach); !errors.Is(err, errIDsNeedWords) {
			t.Errorf("LearnKV with a bare %s: err = %v, want %v", name, err, errIDsNeedWords)
		}
	}
}

// TestScratchPinsNoSymbols: after a large Learn followed by a small one
// on the same scratch, no string-holding buffer of the pooled scratch
// (over its whole capacity) nor of a released Words refers to a symbol.
func TestScratchPinsNoSymbols(t *testing.T) {
	sc := new(scratch)
	big := pathre.Compile(pathre.MustParsePath("/site//(item|name)"), wideAlphabet())
	if _, _, err := learnIn(sc, wideAlphabet(), &batchTeacher{perfectTeacher: perfectTeacher{big}}); err != nil {
		t.Fatal(err)
	}
	bigCap := cap(sc.wvSyms)
	small := pathre.Compile(pathre.MustParsePath("/site"), alphabet)
	words := NewWords(nil, alphabet)
	if _, _, err := learnIn(sc, alphabet, &batchTeacher{perfectTeacher: perfectTeacher{small}}, WithWords(words)); err != nil {
		t.Fatal(err)
	}
	if cap(sc.wvSyms) < bigCap {
		t.Fatalf("scratch lost capacity: %d < %d", cap(sc.wvSyms), bigCap)
	}
	for name, buf := range map[string][]string{
		"wb": sc.wb[:cap(sc.wb)], "wvSyms": sc.wvSyms[:cap(sc.wvSyms)],
	} {
		for i, s := range buf {
			if s != "" {
				t.Fatalf("pooled %s[%d] pins %q", name, i, s)
			}
		}
	}
	for i, w := range sc.wvWords[:cap(sc.wvWords)] {
		if w != nil {
			t.Fatalf("pooled wvWords[%d] pins %v", i, w)
		}
	}
	words.Release()
	checkReleased(t, words)
}

// checkReleased fails if a released Words still holds a page or a
// symbol string anywhere in its buffers' capacity.
func checkReleased(t *testing.T, w *Words) {
	t.Helper()
	for i, s := range w.symStr[:cap(w.symStr)] {
		if s != "" {
			t.Fatalf("released Words symStr[%d] pins %q", i, s)
		}
	}
	for i, pg := range w.nodes[:cap(w.nodes)] {
		if pg != nil {
			t.Fatalf("released Words holds node page %d", i)
		}
	}
	for i, pg := range w.rows[:cap(w.rows)] {
		if pg != nil {
			t.Fatalf("released Words holds row page %d", i)
		}
	}
}

// TestWordsPagesAgainstOracle grows Words across at least three node
// pages and three row pages and checks them against the string-join
// oracle: Word, Intern and InternAlpha agree, and equal keys share an ID
// while distinct keys never do. The alphabets are 1 symbol (a row page
// holds the most rows), 77 (the XMark document's) and 256, the largest
// dense alphabet, whose row pages hold the fewest rows. Each round
// extends a random earlier word by one symbol and gives the result two
// children, the second in the alphabet, so nearly every round promotes
// a node to a dense row. Symbols are also drawn from eight outside the
// alphabet, which exercises the packed-map children and lets the
// 1-symbol trie promote at all: a node promotes on its second child in
// the alphabet or on its first after an outside one.
func TestWordsPagesAgainstOracle(t *testing.T) {
	for _, nsym := range []int{1, 77, denseAlphabetMax} {
		rng := rand.New(rand.NewSource(int64(nsym)))
		alphabet := make([]string, nsym)
		for i := range alphabet {
			alphabet[i] = fmt.Sprintf("s%03d", i)
		}
		pool := append([]string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}, alphabet...)
		tab := NewSymbolTable()
		w := NewWords(tab, alphabet)
		idOf := map[string]int32{"": 0}
		words := [][]string{nil}
		intern := func(word []string) {
			key := strings.Join(word, "\x00")
			var id int32
			if pos, ok := alphaPos(word); ok && len(idOf)%2 == 1 {
				id = w.InternAlpha(pos)
			} else {
				id = w.Intern(word)
			}
			if prev, seen := idOf[key]; seen && prev != id {
				t.Fatalf("%d symbols: key %q got ID %d, previously %d", nsym, key, id, prev)
			}
			idOf[key] = id
			words = append(words, word)
		}
		for len(w.nodes) < 3 || len(w.rows) < 3 {
			base := words[rng.Intn(len(words))]
			p := append(base[:len(base):len(base)], pool[rng.Intn(len(pool))])
			intern(p)
			intern(append(p[:len(p):len(p)], pool[rng.Intn(len(pool))]))
			intern(append(p[:len(p):len(p)], alphabet[rng.Intn(nsym)]))
		}
		ids := map[int32]string{}
		for key, id := range idOf {
			if other, dup := ids[id]; dup {
				t.Fatalf("%d symbols: ID %d shared by keys %q and %q", nsym, id, key, other)
			}
			ids[id] = key
			if got := strings.Join(w.Word(id), "\x00"); got != key {
				t.Fatalf("%d symbols: Word(%d) joins to %q, want %q", nsym, id, got, key)
			}
			if key != "" {
				if again := w.Intern(strings.Split(key, "\x00")); again != id {
					t.Fatalf("%d symbols: re-interning %q gave ID %d, want %d", nsym, key, again, id)
				}
			}
		}
		t.Logf("%d symbols: %d words, %d nodes, %d node pages, %d row pages", nsym, len(idOf), w.Len(), len(w.nodes), len(w.rows))
		w.Release()
		checkReleased(t, w)
	}
}

// alphaPos returns word as positions in an alphabet of "s%03d" symbols,
// false when a symbol lies outside it.
func alphaPos(word []string) ([]int32, bool) {
	pos := make([]int32, len(word))
	for i, s := range word {
		var n int32
		if _, err := fmt.Sscanf(s, "s%03d", &n); err != nil {
			return nil, false
		}
		pos[i] = n
	}
	return pos, true
}
