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
// counted per distinct word asked, one charge per word (the learner
// itself never repeats a word; repeats are served from the observation
// table). Words a Deducer's dead region answers are not asked and not
// counted; L* does not even give them a row of their own (see
// Deducer).
type Stats struct {
	MembershipQueries  int
	EquivalenceQueries int
	Counterexamples    int
	HypothesisStates   int
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
// on return; an IDTeacher and a Deducer need this option, because
// their IDs mean nothing outside the Words.
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
	// ID. Words are materialized for the plain Teacher form alone.
	ids IDTeacher
	// ded is the teacher's dead region when it has one (see Deducer):
	// cells in it are filled No without a node or a question, and an
	// extension row in it is the shared sink row (see ext).
	ded     Deducer
	initial []string
	maxEQ   int

	// Word interning. Every access string, live one-symbol extension,
	// and asked word is a node of the Words trie (a cell deduced dead
	// and a sink extension are not); all per-word state below is
	// indexed by node ID, so the scans that dominate L* — closedness,
	// consistency, hypothesis extraction — and the membership-table
	// probes run on integer lookups with zero string building. The trie
	// may hold nodes from earlier Learn calls on the same Words; grow
	// covers them with fresh per-call state.
	tr *Words
	// rowOf maps a node to its observation-table entry in rowEnts, -1
	// until the node is first used as a table prefix. The indirection
	// keeps the per-node cost at 4 bytes: only the prefixes of S and
	// their live one-symbol extensions ever get an entry, while the vast
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
	// sinkInS caches, for the current epoch, that rowsOfS holds the
	// all-zero row: once S realizes it, no sink extension is promoted.
	sinkInS bool
	// exts holds, for each prefix in S, one slot per alphabet symbol:
	// its extension's node, -1 for a sink, or extUnknown (see ext).
	exts []int32
	// zero is the sink row: the all-zero row every sink extension
	// reads, of length len(e) (see sinkRow).
	zero []byte
	// sinkRests memoizes the dead-word rest of a·e for alphabet position
	// ai and column c at sinkRests[c*len(alphabet)+ai] (-1 until
	// computed): the rest of every cell of a live prefix's sink
	// extension by a, whatever the prefix (see deduceSink).
	sinkRests []int32
	// wb is the word scratch for the plain Teacher form only; an ID
	// teacher never gets a word from the learner. It is only valid for
	// the teacher call, exactly the Teacher word contract. wbHigh is the
	// largest length it reached in this Learn: release clears it only
	// that far (see scratch.go).
	wb     []string
	wbHigh int

	stats Stats
}

// rowEntry is one prefix's row, built column by column: bits holds the
// membership answers ('0'/'1') for the first len(bits) suffixes. Rows
// are handed out as byte slices aliasing bits — map probes use the
// non-allocating map[string(bits)] form and a row string is only
// materialized when a genuinely new row is inserted — so a caller must
// not hold a row across a row call for the same prefix. The per-prefix
// closedness state rides along: inS marks membership in S, checked the
// suffix epoch in which the row was confirmed realized in S. For a
// prefix in S, exts is the offset of its extension slots in l.exts (see
// ext) and sinkCols counts the columns whose cells of its sink
// extensions were reported to the Deducer (see deduceSink).
type rowEntry struct {
	bits     []byte
	checked  uint32
	exts     int32
	sinkCols int32
	inS      bool
}

// grow extends the per-node side arrays to the trie's node count.
func (l *learner) grow() {
	for len(l.rowOf) < l.tr.Len() {
		l.rowOf = append(l.rowOf, -1)
		l.ans = append(l.ans, ansUnknown)
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
			e.exts = 0
			e.sinkCols = 0
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
// registering it on first sight — in the dead region too, marked dead:
// a sink extension promoted into S needs an ID for its row.
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

// ext returns the node of prefix id, which is in S, extended by
// alphabet[ai], or -1 when the extension is a sink: its word lies in
// the teacher's dead region and it is not in S. A Deducer's region is
// prefix-closed, so a sink's row is all zeros, the one sink row every
// sink extension shares (sinkRow); it needs no node, no row entry and
// no cell walk. The answer is resolved once per S prefix and symbol
// (resolveExt) and kept in the prefix's slots in exts; addPrefix
// updates a slot when its sink joins S.
func (l *learner) ext(id int32, ai int) int32 {
	i := l.rowEnts[l.rowOf[id]].exts + int32(ai)
	if l.exts[i] == extUnknown {
		l.exts[i] = l.resolveExt(id, ai)
	}
	return l.exts[i]
}

// extUnknown marks an exts slot not resolved yet.
const extUnknown = -2

// resolveExt is ext without the slot: a live extension is interned on
// first sight, and whether a missing child is dead is asked of the
// Deducer.
func (l *learner) resolveExt(id int32, ai int) int32 {
	c := l.tr.rowChild(id, ai)
	if c < 0 {
		sym := l.tr.alpha[ai]
		if c = l.tr.child(id, sym); c < 0 {
			if l.ded != nil && (l.tr.dead(id) || l.ded.DeadStep(id, sym)) {
				return -1
			}
			return l.node(id, sym)
		}
	}
	if l.tr.dead(c) && !l.isInS(c) {
		return -1
	}
	return c
}

// extRow returns the row of prefix id's extension by alphabet[ai]: the
// sink row for a sink extension, else its own (see row).
func (l *learner) extRow(id int32, ai int) ([]byte, error) {
	if eid := l.ext(id, ai); eid >= 0 {
		return l.row(eid)
	}
	return l.sinkRow(), nil
}

// sinkRow returns the all-zero row of length len(e). The slice is
// shared; callers only read it.
func (l *learner) sinkRow() []byte {
	for len(l.zero) < len(l.e) {
		l.zero = append(l.zero, '0')
	}
	return l.zero[:len(l.e)]
}

// deduceSink reports the cells of columns [from, len(e)) of prefix
// id's sink extension by alphabet[ai] — the dead words id·a·e — to the
// Deducer, keyed exactly as cell keys them. Below a live prefix the key
// is (id, rest of a·e), and that rest is memoized per (symbol, column)
// in sinkRests, so a cell costs one probe of the Words' seen set; below
// a dead prefix (a sink promoted into S, or a counterexample prefix)
// the rest continues the prefix's own and is walked.
func (l *learner) deduceSink(id int32, ai, from int) {
	if from >= len(l.e) {
		return
	}
	k, dead := l.tr.key(id)
	sym := l.tr.alpha[ai]
	if dead {
		r := l.tr.restChild(k.rest, sym)
		for c := from; c < len(l.e); c++ {
			l.tr.deduce(l.ded, deadKey{k.anchor, l.tr.restWalk(r, l.eSyms[c])})
		}
		return
	}
	na := len(l.alphabet)
	for c := from; c < len(l.e); c++ {
		for len(l.sinkRests) < (c+1)*na {
			l.sinkRests = append(l.sinkRests, -1)
		}
		r := &l.sinkRests[c*na+ai]
		if *r < 0 {
			*r = l.tr.restWalk(l.tr.restChild(0, sym), l.eSyms[c])
		}
		l.tr.deduce(l.ded, deadKey{id, *r})
	}
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
// ID; it is the table's one fill path. A row is a function of the
// prefix and the suffix set E only, and E only grows, so the cached row
// stays correct column-for-column forever: a call after a suffix was
// added probes just the new columns. A cell's membership lookup walks
// the suffix symbols from the prefix node — integer steps, no string
// building — and asks the teacher only on a miss, one MemberID (or
// Member) call per distinct word, in the order the scans reach the
// cells; a cell in the teacher's dead region is No without a walk below
// the dead step.
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

// addPrefix adds node id to S, with unresolved extension slots. A dead
// prefix joining S stops being its parent's sink extension, so the
// parent's slot, when the parent is in S, now names the node.
func (l *learner) addPrefix(id int32) {
	ent := l.rowEnt(id)
	if ent.inS {
		return
	}
	ent.inS = true
	ent.exts = int32(len(l.exts))
	for range l.alphabet {
		l.exts = append(l.exts, extUnknown)
	}
	l.s = append(l.s, id)
	if !l.tr.dead(id) {
		return
	}
	if p := l.tr.Parent(id); l.isInS(p) {
		if ai := l.tr.aiOf[l.tr.LastSym(id)]; ai >= 0 {
			l.exts[l.rowEnts[l.rowOf[p]].exts+ai] = id
		}
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
	l.s = l.s[:0]
	l.addPrefix(0)
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
// close calls of the counterexample loop. Rows are filled as the scan
// reaches them (row), so the teacher hears the cells in scan order.
//
// A sink extension (see ext) reads the sink row. When S does not yet
// realize that row, the first sink the scan meets is promoted into S,
// node and all, at the position where any extension with a new row is
// promoted, so S's order and the hypothesis's state numbering are
// those of a table that gave every extension its own row. The sink's
// cells are dead words; deduceSink reports them to the Deducer when
// the scan reaches them, as a filled row would have.
func (l *learner) close() error {
	for {
		if l.rowsOfS == nil {
			l.rowsOfS = map[string]bool{}
			l.tabled = 0
			l.sinkInS = false
			l.epoch++
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
		// pass suffices.
		for i := 0; i < len(l.s); i++ {
			sid := l.s[i]
			from := int(l.rowEnt(sid).sinkCols)
			for ai := range l.alphabet {
				eid := l.ext(sid, ai)
				if eid < 0 {
					l.deduceSink(sid, ai, from)
					if err := l.checkSink(sid, ai); err != nil {
						return err
					}
					continue
				}
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
			l.rowEnt(sid).sinkCols = int32(len(l.e))
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

// checkSink is the closedness check of prefix id's sink extension by
// alphabet[ai]: when S does not realize the sink row yet, the extension
// is promoted into S with a node of its own and the sink row as its
// row.
func (l *learner) checkSink(id int32, ai int) error {
	if l.sinkInS {
		return nil
	}
	if l.sinkInS = l.rowsOfS[string(l.sinkRow())]; l.sinkInS {
		return nil
	}
	eid := l.node(id, l.tr.alpha[ai])
	if _, err := l.row(eid); err != nil {
		return err
	}
	l.addPrefix(eid)
	l.rowsOfS[string(l.sinkRow())] = true
	l.sinkInS = true
	return nil
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
				ri, err := l.extRow(l.s[i], ai)
				if err != nil {
					return false, err
				}
				rj, err := l.extRow(l.s[j], ai)
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
		for ai, a := range l.alphabet {
			re, err := l.extRow(rep, ai)
			if err != nil {
				return nil, err
			}
			target, ok := stateOf[string(re)]
			if !ok {
				return nil, fmt.Errorf("%w: extension %q has row %s, realized by no prefix in S",
					ErrNotClosed, "/"+strings.Join(append(l.tr.Word(rep), a), "/"), re)
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
