// Package angluin implements Angluin's L* algorithm for learning a
// minimal DFA from membership and equivalence queries (Angluin 1987),
// the machine-learning core of XLearner's P-Learner. The teacher
// abstraction is deliberately minimal so callers can interpose caching,
// interaction counting, and the paper's auto-answer rules R1/R2.
package angluin

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/pathre"
)

// Teacher answers the two kinds of learner's queries of a minimally
// adequate teacher. Either method may return an error — a canceled
// session, a teacher who walked away, an inconsistency that demands a
// restart — which aborts the learner immediately and propagates out of
// Learn/LearnKV unwrapped, so callers can match it with errors.Is/As.
type Teacher interface {
	// Member reports whether word is in the target language. The word
	// slice is only valid for the duration of the call — the learner
	// reuses its backing array — so implementations that keep it must
	// copy.
	Member(word []string) (bool, error)
	// Equivalent checks the hypothesis. If the hypothesis is correct it
	// returns (nil, true, nil); otherwise it returns a counterexample
	// word from the symmetric difference and false.
	Equivalent(hypothesis *pathre.DFA) (counterexample []string, ok bool, err error)
}

// IDTeacher is an optional Teacher extension: MemberID is Member for
// the word with the given ID in the Words the learner runs over. The
// learner tracks every word it asks about as a trie node anyway, so a
// teacher that keeps its own per-word answer state indexes it by the
// ID instead of hashing the word, and reads the word itself from the
// Words (Depth, LastSym, AppendWord) only when it needs it. The teacher
// must hand that Words to the learner with WithWords; Learn and LearnKV
// refuse an ID teacher without one. IDs are stable for the life of the
// Words, across Learn calls.
type IDTeacher interface {
	Teacher
	MemberID(id int32) (bool, error)
}

// Stats counts the queries the learner issued. Membership queries are
// counted per distinct word asked — one charge per word whether it went
// out alone or inside a batch (the learner itself never repeats a word;
// repeats are served from the observation table) — so the counts are
// identical across the serial and batched protocols. Words a Deducer's
// dead region answers are not asked and not counted.
type Stats struct {
	MembershipQueries  int
	EquivalenceQueries int
	Counterexamples    int
	HypothesisStates   int
	// BatchRounds / BatchedQueries count L*'s query-set round trips and
	// the membership queries shipped in them (zero for single-query
	// teachers, and for KV, which asks every probe on its own).
	BatchRounds    int
	BatchedQueries int
}

// Option configures Learn.
type Option func(*learner)

// WithInitialExample seeds the observation table with the prefixes of a
// known positive example (the paper's path(e) of the dropped node).
func WithInitialExample(word []string) Option {
	return func(l *learner) { l.initial = append([]string(nil), word...) }
}

// WithMaxEquivalenceQueries bounds the number of equivalence queries;
// Learn fails with an error if exceeded (protects against inconsistent
// teachers). Default 1000.
func WithMaxEquivalenceQueries(n int) Option {
	return func(l *learner) { l.maxEQ = n }
}

// WithWords runs the learner over a caller-owned word intern, built by
// NewWords for the same alphabet. The IDs the teacher receives (see
// IDTeacher) are the Words' node IDs, so a caller that learns one
// target over several Learn calls passes the same Words to each and
// keeps its ID-indexed answer state valid across them. Without this
// option the learner interns into a pooled private Words it releases
// on return; the ID forms of the seam (IDTeacher, IDBatchTeacher) and a
// Deducer need this option, because their IDs mean nothing outside the
// Words.
func WithWords(w *Words) Option {
	return func(l *learner) { l.tr = w }
}

// Learn runs L* over the given alphabet against the teacher and returns
// the learned minimal DFA.
func Learn(alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return learnIn(sc, alphabet, t, opts...)
}

// learnIn is Learn over the given scratch.
func learnIn(sc *scratch, alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	l, err := newLearner(alphabet, t, opts...)
	if err != nil {
		return nil, Stats{}, err
	}
	if l.tr == nil {
		l.tr = NewWords(nil, l.alphabet)
		defer l.tr.Release()
	}
	l.adopt(sc)
	defer l.release(sc)
	l.grow()
	return l.run()
}

// newLearner configures a learner for the teacher, checking the Words
// option; the caller supplies the Words when none was given and the
// scratch.
func newLearner(alphabet []string, t Teacher, opts ...Option) (*learner, error) {
	l := &learner{
		alphabet: append([]string(nil), alphabet...),
		teacher:  t,
		maxEQ:    1000,
	}
	l.ids, _ = t.(IDTeacher)
	l.batch, _ = t.(BatchTeacher)
	l.bids, _ = t.(IDBatchTeacher)
	l.ded, _ = t.(Deducer)
	for _, o := range opts {
		o(l)
	}
	return l, checkWords(l.tr, l.alphabet, t)
}

var (
	errWordsAlphabet = errors.New("angluin: Words built for a different alphabet")
	errIDsNeedWords  = errors.New("angluin: an ID teacher or Deducer needs WithWords")
	// ErrNotClosed reports a hypothesis requested from an observation
	// table that is not closed: a one-symbol extension of S whose row no
	// prefix in S realizes. close() establishes closedness before every
	// hypothesis, so the error means a bookkeeping bug, never a teacher
	// fault.
	ErrNotClosed = errors.New("angluin: observation table not closed")
)

// checkWords validates the Words a Learn or LearnKV call runs over:
// built for the same alphabet when given, and given whenever the
// teacher takes word IDs.
func checkWords(w *Words, alphabet []string, t Teacher) error {
	if w == nil {
		_, ids := t.(IDTeacher)
		_, ded := t.(Deducer)
		if ids || ded {
			return errIDsNeedWords
		}
		return nil
	}
	if !w.hasAlphabet(alphabet) {
		return errWordsAlphabet
	}
	return nil
}

// Membership-table cell states: the table is a dense array indexed by
// trie node ID, so a probe is one load instead of a string-keyed map
// lookup.
const (
	ansUnknown uint8 = iota
	ansNo
	ansYes
)

type learner struct {
	alphabet []string
	teacher  Teacher
	// ids is teacher's IDTeacher form when it implements one (nil
	// otherwise); membership misses prefer it, passing only the word's
	// ID. Words are materialized for the plain Teacher/BatchTeacher
	// forms alone.
	ids IDTeacher
	// batch/bids are the teacher's batch forms when implemented: the
	// closedness scan then prefills whole query sets per round trip
	// (see batch.go) instead of asking cell by cell.
	batch BatchTeacher
	bids  IDBatchTeacher
	// ded is the teacher's dead region when it has one (see Deducer):
	// cells in it are filled No without a node or a question.
	ded     Deducer
	initial []string
	maxEQ   int

	// Word interning. Every access string, one-symbol extension, and
	// asked word is a node of the Words trie (a cell deduced dead is
	// not); all per-word state below is indexed by node ID, so the
	// scans that dominate L* — closedness, consistency, hypothesis
	// extraction — and the membership-table probes run on integer
	// lookups with zero string building. The
	// trie may hold nodes from earlier Learn calls on the same Words;
	// grow covers them with fresh per-call state.
	tr *Words
	// rowOf maps a node to its observation-table entry in rowEnts, -1
	// until the node is first used as a table prefix. The indirection
	// keeps the per-node cost at 4 bytes: only the prefixes of S and
	// their one-symbol extensions ever get an entry, while the vast
	// majority of nodes — intermediate links of the prefix·suffix word
	// walks — never do.
	rowOf   []int32
	rowEnts []rowEntry
	epoch   uint32
	// ans is the membership table: the answer for the word at each trie
	// node. Distinct (prefix, suffix) pairs concatenating to the same
	// word walk to the same node, so they share a single teacher
	// question exactly as the string-keyed table did.
	ans []uint8
	// waveMark stamps nodes already collected into the current batch
	// wave (see prefill), replacing the per-wave seen map.
	waveMark  []uint32
	waveEpoch uint32

	// s is the access-string set S in insertion order.
	s []int32
	// e is the distinguishing suffix set E, with eSyms the suffixes
	// resolved to symbol IDs for the trie walk.
	e     [][]string
	eSyms [][]int32
	// Incremental closedness state, valid for the current E. rowsOfS
	// holds the rows S realizes (it only grows while E is fixed:
	// prefixes are never removed); tabled counts the prefixes of s
	// already folded into it. Both reset, and the epoch advances, when
	// a suffix is added.
	rowsOfS map[string]bool
	tabled  int
	// prefilled is the S index up to which the current epoch's
	// closedness query set was batch-prefetched (see prefill); reset
	// with the epoch.
	prefilled int
	// Batch-wave scratch, reused across waves (see prefill): wvWids is
	// the wave's query set by word ID; pfRows lists the rows the wave
	// fills and pfCells the word ID of each of their unfilled cells,
	// row after row, so the landed answers are appended to the rows
	// without walking the cells again.
	wvWids  []int32
	pfRows  []int32
	pfCells []int32
	// Word scratch for the plain Teacher/BatchTeacher forms only; an ID
	// teacher never gets a word from the learner. wb holds the word
	// asked one at a time; for a wave, wvSyms flat-stores the words back
	// to back and wvOff records each word's start, so the per-word slice
	// headers (wvWords) are carved only after the flat buffer stops
	// growing. All are only valid for the teacher call, exactly the
	// Teacher word contract.
	wb      []string
	wvSyms  []string
	wvOff   []int32
	wvWords [][]string
	// wbHigh/wvHigh/wvWordsHigh are the largest lengths wb, wvSyms and
	// wvWords reached in this Learn: release clears the string-holding
	// buffers only that far (see scratch.go).
	wbHigh, wvHigh, wvWordsHigh int

	stats Stats
}

// rowEntry is one prefix's row, built column by column: bits holds the
// membership answers ('0'/'1') for the first len(bits) suffixes. Rows
// are handed out as byte slices aliasing bits — map probes use the
// non-allocating map[string(bits)] form and a row string is only
// materialized when a genuinely new row is inserted — so a caller must
// not hold a row across a row call for the same prefix. The per-prefix
// closedness state rides along: inS marks membership in S, checked the
// suffix epoch in which the row was confirmed realized in S.
type rowEntry struct {
	bits    []byte
	checked uint32
	inS     bool
}

// grow extends the per-node side arrays to the trie's node count.
func (l *learner) grow() {
	for len(l.rowOf) < l.tr.Len() {
		l.rowOf = append(l.rowOf, -1)
		l.ans = append(l.ans, ansUnknown)
		l.waveMark = append(l.waveMark, 0)
	}
}

// rowEnt returns node id's table entry, allocating it on first use as a
// prefix. The pointer is valid until the next rowEnt call for a node
// without one — callers must not hold it across prefix additions.
func (l *learner) rowEnt(id int32) *rowEntry {
	ri := l.rowOf[id]
	if ri < 0 {
		ri = int32(len(l.rowEnts))
		l.rowOf[id] = ri
		if n := len(l.rowEnts); n < cap(l.rowEnts) {
			// Reuse a pooled slot in place so its bits buffer keeps its
			// capacity across sessions.
			l.rowEnts = l.rowEnts[:n+1]
			e := &l.rowEnts[n]
			e.bits = e.bits[:0]
			e.checked = 0
			e.inS = false
		} else {
			l.rowEnts = append(l.rowEnts, rowEntry{})
		}
	}
	return &l.rowEnts[ri]
}

// isInS reports whether node id is in S, without allocating an entry.
func (l *learner) isInS(id int32) bool {
	ri := l.rowOf[id]
	return ri >= 0 && l.rowEnts[ri].inS
}

// checkedAt returns node id's closedness-check epoch stamp (0 = never),
// without allocating an entry.
func (l *learner) checkedAt(id int32) uint32 {
	ri := l.rowOf[id]
	if ri < 0 {
		return 0
	}
	return l.rowEnts[ri].checked
}

// node returns the trie node for prefix p extended by symbol sym,
// registering it on first sight — in the dead region too, marked dead,
// because the node is a table prefix whose row needs an ID.
func (l *learner) node(p, sym int32) int32 {
	id := l.tr.extend(p, sym, l.ded)
	l.grow()
	return id
}

// cell returns the node of the table cell prefix id · suffix syms, or
// -1 when the cell's word lies in the teacher's dead region: then no
// node is added below the dead step, and the dead word is reported to
// the Deducer on its first sight.
func (l *learner) cell(id int32, syms []int32) int32 {
	wid, k := l.tr.cell(id, syms, l.ded)
	if wid < 0 {
		l.tr.deduce(l.ded, k)
		return -1
	}
	l.grow()
	return wid
}

// internWord interns a word, resolving its symbols as needed
// (counterexamples can contain symbols outside the alphabet).
func (l *learner) internWord(w []string) int32 {
	id := l.tr.internVia(w, l.ded)
	l.grow()
	return id
}

// extID returns the ID of prefix id extended by alphabet[ai],
// interning the extension on first sight. In dense mode this is the
// row lookup fast path the closedness and hypothesis scans hit.
func (l *learner) extID(id int32, ai int) int32 {
	if c := l.tr.rowChild(id, ai); c >= 0 {
		return c
	}
	return l.node(id, l.tr.alpha[ai])
}

func (l *learner) setAns(id int32, v bool) {
	if v {
		l.ans[id] = ansYes
	} else {
		l.ans[id] = ansNo
	}
}

func (l *learner) member(w []string) (bool, error) {
	id := l.internWord(w)
	if k, dead := l.tr.key(id); dead {
		l.tr.deduce(l.ded, k)
		return false, nil
	}
	if v := l.ans[id]; v != ansUnknown {
		return v == ansYes, nil
	}
	return l.ask(id)
}

// ask puts one membership query to the teacher — by ID when the teacher
// takes one, else as the materialized word — and charges and records
// the answer.
func (l *learner) ask(id int32) (bool, error) {
	var v bool
	var err error
	if l.ids != nil {
		v, err = l.ids.MemberID(id)
	} else {
		l.wb = l.tr.AppendWord(l.wb[:0], id)
		l.wbHigh = max(l.wbHigh, len(l.wb))
		v, err = l.teacher.Member(l.wb)
	}
	if err != nil {
		return false, err
	}
	l.stats.MembershipQueries++
	l.setAns(id, v)
	return v, nil
}

// row computes the observation-table row of the prefix with the given
// ID. A row is a function of the prefix and the suffix set E only, and
// E only grows, so the cached row stays correct column-for-column
// forever: a call after a suffix was added probes just the new columns.
// A cell's membership lookup walks the suffix symbols from the prefix
// node — integer steps, no string building — and asks the teacher only
// on a miss; a cell in the teacher's dead region is No without a walk
// below the dead step. Under a batch teacher prefill has already filled
// every row the scans read, so this loop runs only for the serial
// teacher.
// The returned slice aliases the entry's growing buffer — valid until
// the next row call for the same prefix, which callers never
// interleave.
func (l *learner) row(id int32) ([]byte, error) {
	ent := l.rowEnt(id)
	for i := len(ent.bits); i < len(l.e); i++ {
		wid := l.cell(id, l.eSyms[i])
		if wid >= 0 && l.ans[wid] == ansUnknown {
			if _, err := l.ask(wid); err != nil {
				return nil, err
			}
		}
		ent.bits = append(ent.bits, l.cellBit(wid))
	}
	return ent.bits, nil
}

// cellBit renders an answered cell — a word ID, or -1 for a deduced
// one — as its row byte.
func (l *learner) cellBit(wid int32) byte {
	if wid >= 0 && l.ans[wid] == ansYes {
		return '1'
	}
	return '0'
}

func (l *learner) addPrefix(id int32) {
	if ent := l.rowEnt(id); !ent.inS {
		ent.inS = true
		l.s = append(l.s, id)
	}
}

func (l *learner) hasSuffix(syms []int32) bool {
	for _, es := range l.eSyms {
		if len(es) != len(syms) {
			continue
		}
		eq := true
		for i := range es {
			if es[i] != syms[i] {
				eq = false
				break
			}
		}
		if eq {
			return true
		}
	}
	return false
}

func (l *learner) run() (*pathre.DFA, Stats, error) {
	l.s = append(l.s[:0], 0)
	l.rowEnt(0).inS = true
	l.e = [][]string{{}}
	l.eSyms = [][]int32{{}}
	if l.initial != nil {
		for i := 1; i <= len(l.initial); i++ {
			l.addPrefix(l.internWord(l.initial[:i]))
		}
	}
	for eq := 0; eq < l.maxEQ; eq++ {
		if err := l.close(); err != nil {
			return nil, l.stats, err
		}
		h, err := l.hypothesis()
		if err != nil {
			return nil, l.stats, err
		}
		l.stats.EquivalenceQueries++
		l.stats.HypothesisStates = h.NumStates()
		ce, ok, err := l.teacher.Equivalent(h)
		if err != nil {
			return nil, l.stats, err
		}
		l.grow() // the teacher may have interned words into the Words
		if ok {
			return h, l.stats, nil
		}
		l.stats.Counterexamples++
		if ce == nil {
			return nil, l.stats, fmt.Errorf("angluin: teacher rejected hypothesis without a counterexample")
		}
		inTarget, err := l.member(ce)
		if err != nil {
			return nil, l.stats, err
		}
		if h.Accepts(ce) == inTarget {
			return nil, l.stats, fmt.Errorf("angluin: counterexample %v does not distinguish hypothesis from target", ce)
		}
		for i := 1; i <= len(ce); i++ {
			l.addPrefix(l.internWord(ce[:i]))
		}
	}
	return nil, l.stats, fmt.Errorf("angluin: exceeded %d equivalence queries", l.maxEQ)
}

// close extends S until the table is closed and consistent. The
// closedness scan is incremental: under a fixed suffix set rows never
// change and S only grows, so extension checks that passed once are
// never repeated — neither within one call nor across the successive
// close calls of the counterexample loop.
//
// With a batch teacher the scan is batch-first: before touching a
// frontier level it prefills every cell the level's checks will need as
// one query set (prefill), so the row calls below are pure table reads;
// without one, prefill is a no-op and the row calls ask cell by cell
// exactly as before. Either way the cells are answered in the same
// order with the same charges.
func (l *learner) close() error {
	for {
		if l.rowsOfS == nil {
			l.rowsOfS = map[string]bool{}
			l.tabled = 0
			l.prefilled = 0
			l.epoch++
		}
		if err := l.prefill(); err != nil {
			return err
		}
		for l.tabled < len(l.s) {
			r, err := l.row(l.s[l.tabled])
			if err != nil {
				return err
			}
			// Probe before inserting: the map[string(r)] probe form never
			// allocates, and a row string is materialized only for the few
			// genuinely distinct rows.
			if !l.rowsOfS[string(r)] {
				l.rowsOfS[string(r)] = true
			}
			l.tabled++
		}
		// Closedness: every one-step extension's row must appear in S.
		// Prefixes appended mid-scan are reached by the same loop, so one
		// pass suffices; their query sets are prefilled level by level as
		// the scan reaches them.
		for i := 0; i < len(l.s); i++ {
			if i >= l.prefilled {
				if err := l.prefill(); err != nil {
					return err
				}
			}
			sid := l.s[i]
			for ai := range l.alphabet {
				eid := l.extID(sid, ai)
				if l.isInS(eid) || l.checkedAt(eid) == l.epoch {
					continue
				}
				r, err := l.row(eid)
				if err != nil {
					return err
				}
				if l.rowsOfS[string(r)] {
					l.rowEnt(eid).checked = l.epoch
					continue
				}
				l.addPrefix(eid)
				l.rowsOfS[string(r)] = true
			}
		}
		l.tabled = len(l.s)
		// Consistency: equal rows must have equal extensions; otherwise
		// a new distinguishing suffix exists.
		fixed, err := l.fixInconsistency()
		if err != nil {
			return err
		}
		if !fixed {
			return nil
		}
		// A suffix was added: every row-derived structure is stale
		// (cached rows stay valid column-for-column and extend lazily).
		l.rowsOfS = nil
	}
}

func (l *learner) fixInconsistency() (bool, error) {
	for i := 0; i < len(l.s); i++ {
		for j := i + 1; j < len(l.s); j++ {
			ri0, err := l.row(l.s[i])
			if err != nil {
				return false, err
			}
			rj0, err := l.row(l.s[j])
			if err != nil {
				return false, err
			}
			if !bytes.Equal(ri0, rj0) {
				continue
			}
			for ai, a := range l.alphabet {
				ri, err := l.row(l.extID(l.s[i], ai))
				if err != nil {
					return false, err
				}
				rj, err := l.row(l.extID(l.s[j], ai))
				if err != nil {
					return false, err
				}
				if bytes.Equal(ri, rj) {
					continue
				}
				// Find the suffix position where they differ; add a.e.
				for p := 0; p < len(ri); p++ {
					if ri[p] != rj[p] {
						newSyms := append([]int32{l.tr.alpha[ai]}, l.eSyms[p]...)
						if !l.hasSuffix(newSyms) {
							l.e = append(l.e, append([]string{a}, l.e[p]...))
							l.eSyms = append(l.eSyms, newSyms)
							return true, nil
						}
					}
				}
			}
		}
	}
	return false, nil
}

// hypothesis builds the conjectured DFA from the closed, consistent
// observation table. An extension row missing from S fails with
// ErrNotClosed, naming the extension.
func (l *learner) hypothesis() (*pathre.DFA, error) {
	// Unique rows of S become states.
	stateOf := map[string]int{}
	var reps []int32
	for _, sid := range l.s {
		r, err := l.row(sid)
		if err != nil {
			return nil, err
		}
		if _, ok := stateOf[string(r)]; !ok {
			stateOf[string(r)] = len(reps)
			reps = append(reps, sid)
		}
	}
	d := pathre.NewDFA(l.alphabet, len(reps))
	// NewDFA sorts the alphabet; transitions must be indexed by the
	// sorted order.
	col := make([]int, len(l.alphabet))
	for ai, a := range l.alphabet {
		col[ai] = d.SymIndex(a)
	}
	for qi, rep := range reps {
		r, err := l.row(rep)
		if err != nil {
			return nil, err
		}
		d.Accept[qi] = r[0] == '1' // E[0] is ε
		for ai := range l.alphabet {
			re, err := l.row(l.extID(rep, ai))
			if err != nil {
				return nil, err
			}
			target, ok := stateOf[string(re)]
			if !ok {
				return nil, fmt.Errorf("%w: extension %q has row %s, realized by no prefix in S",
					ErrNotClosed, "/"+strings.Join(l.tr.Word(l.extID(rep, ai)), "/"), re)
			}
			d.Trans[qi][col[ai]] = target
		}
	}
	r0, err := l.row(0)
	if err != nil {
		return nil, err
	}
	d.Start = stateOf[string(r0)]
	return d, nil
}
