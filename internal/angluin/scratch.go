package angluin

import "sync"

// The learner scratch pool. One learning session's table-sized arrays —
// the row indirection, the membership table, S's extension slots, the
// sink row and its rest memo, the word buffer a plain Teacher is asked through — are handed
// back when Learn returns and adopted, contents reset but capacities
// intact, by the next session in the process. The engine runs one
// learner per fragment per restart, so without the pool every session
// re-grows its arrays through append doubling; with it the
// steady-state table path allocates almost nothing. Pooling is
// invisible to the dialogue: adopt truncates every array to empty and
// grow rebuilds all contents, so only capacities survive between
// sessions. (The word trie itself is pooled separately, see Words.)
type scratch struct {
	rowOf     []int32
	rowEnts   []rowEntry
	ans       []uint8
	s         []int32
	exts      []int32
	zero      []byte
	sinkRests []int32
	wb        []string
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// adopt moves a pooled scratch's buffers into the learner, truncated to
// empty. Stale contents never matter: the side arrays are appended with
// explicit values by grow, sinkRow and deduceSink, and rowEnt resets a
// reused row slot in place.
func (l *learner) adopt(sc *scratch) {
	l.rowOf = sc.rowOf[:0]
	l.rowEnts = sc.rowEnts[:0]
	l.ans = sc.ans[:0]
	l.s = sc.s[:0]
	l.exts = sc.exts[:0]
	l.zero = sc.zero[:0]
	l.sinkRests = sc.sinkRests[:0]
	l.wb = sc.wb[:0]
}

// release hands the learner's buffers back to the scratch. The word
// buffer is cleared so a pooled scratch pins no document's symbol
// strings — but only up to the length this Learn reached: everything
// beyond was cleared by the release of the Learn that wrote it, so a
// small session never pays for clearing the capacity a large one left
// behind.
func (l *learner) release(sc *scratch) {
	sc.rowOf = l.rowOf
	sc.rowEnts = l.rowEnts
	sc.ans = l.ans
	sc.s = l.s
	sc.exts = l.exts
	sc.zero = l.zero
	sc.sinkRests = l.sinkRests
	clear(l.wb[:l.wbHigh])
	sc.wb = l.wb[:0]
}
