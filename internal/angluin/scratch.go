package angluin

import "sync"

// The learner scratch pool. One learning session's table-sized arrays —
// the row indirection, the membership table, the batch-wave buffers
// (word IDs for every teacher, words only for a plain BatchTeacher) —
// are handed back when Learn returns and adopted, contents reset but
// capacities intact, by the next session in the process. The engine
// runs one learner per fragment per restart, so without the pool every
// session re-grows megabytes of arrays through append doubling; with
// it the steady-state table path allocates almost nothing. Pooling is
// invisible to the dialogue: adopt truncates every array to empty and
// grow rebuilds all contents, so only capacities survive between
// sessions. (The word trie itself is pooled separately, see Words.)
type scratch struct {
	rowOf    []int32
	rowEnts  []rowEntry
	ans      []uint8
	waveMark []uint32
	s        []int32
	wvWids   []int32
	pfRows   []int32
	pfCells  []int32
	wb       []string
	wvSyms   []string
	wvOff    []int32
	wvWords  [][]string
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// adopt moves a pooled scratch's buffers into the learner, truncated to
// empty. Stale contents never matter: the side arrays are appended with
// explicit values by grow, and rowEnt resets a reused row slot in
// place.
func (l *learner) adopt(sc *scratch) {
	l.rowOf = sc.rowOf[:0]
	l.rowEnts = sc.rowEnts[:0]
	l.ans = sc.ans[:0]
	l.waveMark = sc.waveMark[:0]
	l.s = sc.s[:0]
	l.wvWids = sc.wvWids[:0]
	l.pfRows = sc.pfRows[:0]
	l.pfCells = sc.pfCells[:0]
	l.wb = sc.wb[:0]
	l.wvSyms = sc.wvSyms[:0]
	l.wvOff = sc.wvOff[:0]
	l.wvWords = sc.wvWords[:0]
}

// release hands the learner's buffers back to the scratch. The
// string-holding buffers are cleared so a pooled scratch pins no
// document's symbol strings — but only up to the lengths this Learn
// reached: everything beyond was cleared by the release of the Learn
// that wrote it, so a small session never pays for clearing the
// capacity a large one left behind.
func (l *learner) release(sc *scratch) {
	sc.rowOf = l.rowOf
	sc.rowEnts = l.rowEnts
	sc.ans = l.ans
	sc.waveMark = l.waveMark
	sc.s = l.s
	sc.wvWids = l.wvWids
	sc.pfRows = l.pfRows
	sc.pfCells = l.pfCells
	clear(l.wb[:l.wbHigh])
	sc.wb = l.wb[:0]
	clear(l.wvSyms[:l.wvHigh])
	sc.wvSyms = l.wvSyms[:0]
	sc.wvOff = l.wvOff
	clear(l.wvWords[:l.wvWordsHigh])
	sc.wvWords = l.wvWords[:0]
}
