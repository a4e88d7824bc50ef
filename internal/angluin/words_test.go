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
// pre-resolved symbol IDs (InternSyms); the two must agree. Symbols are
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
			for j := range word {
				word[j] = alphabet[rng.Intn(nsym)]
			}
			key := strings.Join(word, "\x00")
			var id int32
			if i%2 == 0 {
				id = w.Intern(word)
			} else {
				id = w.InternSyms(tab.AppendIDs(nil, word))
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

// idRecorder is an ID (optionally batch) teacher that records the ID
// delivered with every word, for checking the learner's IDs against the
// contract: each ID resolves, in the Words the learner ran over, to
// exactly the word delivered with it.
type idRecorder struct {
	perfectTeacher
	t     *testing.T
	words *Words
	batch bool
	got   map[string]int32 // joined word -> ID as delivered
}

func (r *idRecorder) record(w []string, id int32) {
	r.t.Helper()
	joined := strings.Join(w, "\x00")
	if got := strings.Join(r.words.Word(id), "\x00"); got != joined {
		r.t.Errorf("ID %d delivered with %q resolves to %q", id, joined, got)
	}
	if prev, ok := r.got[joined]; ok && prev != id {
		r.t.Errorf("word %q delivered with IDs %d and %d", joined, prev, id)
	}
	r.got[joined] = id
}

func (r *idRecorder) MemberID(w []string, id int32) (bool, error) {
	r.record(w, id)
	return r.Member(w)
}

func (r *idRecorder) MemberBatch(words [][]string) ([]bool, error) {
	return nil, errors.New("idRecorder: the learner must prefer MemberBatchIDs")
}

func (r *idRecorder) MemberBatchIDs(words [][]string, ids []int32) ([]bool, error) {
	out := make([]bool, len(words))
	for i, w := range words {
		r.record(w, ids[i])
		v, err := r.Member(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// serialIDRecorder hides the batch seam: its learner asks cell by cell
// through MemberID.
type serialIDRecorder struct{ *idRecorder }

func (r serialIDRecorder) Member(w []string) (bool, error) { return r.idRecorder.Member(w) }
func (r serialIDRecorder) MemberID(w []string, id int32) (bool, error) {
	return r.idRecorder.MemberID(w, id)
}
func (r serialIDRecorder) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return r.idRecorder.Equivalent(h)
}

// TestIDBatchIDsRoundTrip is the word-ID contract of the teacher seam.
// It learns one target serially (MemberID) and through the batch seam
// (MemberBatchIDs), each time twice over one Words, for both child
// regimes of the trie, and checks that
//   - every ID delivered on either path resolves back to exactly the
//     word delivered with it, and distinct words get distinct IDs;
//   - a word gets the same ID in both Learn calls on one Words;
//   - the serial and batched dialogues are identical.
func TestIDBatchIDsRoundTrip(t *testing.T) {
	for _, alpha := range [][]string{alphabet, wideAlphabet()} {
		target := pathre.Compile(pathre.MustParsePath("/site/regions//item"), alpha)
		var dialogues [2]Stats
		var learned [2]*pathre.DFA
		for pi, batch := range []bool{false, true} {
			words := NewWords(NewSymbolTable(), alpha)
			rec := &idRecorder{perfectTeacher: perfectTeacher{target}, t: t, words: words, batch: batch,
				got: map[string]int32{}}
			var teach Teacher = serialIDRecorder{rec}
			if batch {
				teach = rec
			}
			for run := 0; run < 2; run++ {
				before := len(rec.got)
				d, st, err := Learn(alpha, teach, WithWords(words))
				if err != nil {
					t.Fatalf("alphabet %d, batch=%v, run %d: %v", len(alpha), batch, run, err)
				}
				if run == 1 && len(rec.got) != before {
					t.Errorf("alphabet %d, batch=%v: second Learn asked %d new words, want the same words",
						len(alpha), batch, len(rec.got)-before)
				}
				if batch && st.BatchRounds == 0 {
					t.Fatalf("alphabet %d: batch seam unused", len(alpha))
				}
				dialogues[pi], learned[pi] = st, d
			}
			if len(rec.got) == 0 {
				t.Fatalf("alphabet %d, batch=%v: no queries recorded", len(alpha), batch)
			}
			seen := map[int32]string{}
			for joined, id := range rec.got {
				if other, dup := seen[id]; dup {
					t.Errorf("ID %d delivered for both %q and %q", id, joined, other)
				}
				seen[id] = joined
			}
			words.Release()
		}
		if w, diff := learned[0].Distinguish(learned[1]); diff {
			t.Fatalf("alphabet %d: serial and batched learned different languages, witness %v", len(alpha), w)
		}
		a, b := dialogues[0], dialogues[1]
		if a.MembershipQueries != b.MembershipQueries || a.EquivalenceQueries != b.EquivalenceQueries ||
			a.Counterexamples != b.Counterexamples {
			t.Fatalf("alphabet %d: dialogue diverged\nserial  %+v\nbatched %+v", len(alpha), a, b)
		}
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
// oracle: Word, Intern and InternSyms agree, and equal keys share an ID
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
			if len(idOf)%2 == 0 {
				id = w.Intern(word)
			} else {
				id = w.InternSyms(tab.AppendIDs(nil, word))
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
