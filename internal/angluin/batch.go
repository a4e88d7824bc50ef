package angluin

import (
	"fmt"

	"repro/internal/pathre"
)

// This file is the batch-first half of the teacher protocol: the
// learner no longer asks the teacher cell by cell but emits *query
// sets* — all unfilled cells of a row, all cells a pending closedness
// or consistency check will need — and commits the answers by index.
// Ordering is load-bearing twice over:
//
//   - Emission order equals the serial learner's ask order exactly, so
//     a teacher whose answers depend on dialogue state (the P-Learner's
//     representative selection evolves with positive answers) sees the
//     same question sequence and gives the same answers; batched and
//     serial sessions produce byte-identical observation tables and
//     interaction counts.
//   - Commitment is by query index, never by arrival order: answers[i]
//     belongs to words[i] whatever order a transport delivered them in,
//     so shuffling a batch's answer delivery cannot perturb the table
//     (the xlint determinism suite enforces the pattern).

// BatchTeacher is an optional Teacher extension: MemberBatch answers a
// whole query set in one round trip. The returned slice has exactly one
// answer per word, same index. Word slices follow Member's validity
// contract (only valid for the duration of the call). Teachers whose
// answers depend on dialogue state must process the set in index order;
// the learner emits it in serial ask order for exactly that reason.
type BatchTeacher interface {
	Teacher
	MemberBatch(words [][]string) ([]bool, error)
}

// IDBatchTeacher is the ID form of BatchTeacher (see IDTeacher): the
// learner passes the query set as word IDs only, and the returned slice
// has one answer per ID, same index. The ids slice is only valid for
// the duration of the call.
type IDBatchTeacher interface {
	IDTeacher
	MemberBatchIDs(ids []int32) ([]bool, error)
}

// SerialAdapter adapts any single-query Teacher to the batch seam by
// asking the set in index order, one Member call per word — today's
// single-query teachers (test doubles, replay logs, teacher.Sim used
// serially) keep working unchanged behind it, with an unchanged
// dialogue.
type SerialAdapter struct{ T Teacher }

func (a SerialAdapter) Member(w []string) (bool, error) { return a.T.Member(w) }

func (a SerialAdapter) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return a.T.Equivalent(h)
}

// MemberBatch answers the set serially, in index order.
func (a SerialAdapter) MemberBatch(words [][]string) ([]bool, error) {
	out := make([]bool, len(words))
	for i, w := range words {
		v, err := a.T.Member(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// askWave ships one query set, by word ID, to the batch teacher and
// commits the answers by index: l.ans[wids[i]] = answers[i], one
// membership-query charge per word, exactly as the serial learner would
// have charged asking the same cells one at a time.
func (l *learner) askWave(wids []int32) error {
	if len(wids) == 0 {
		return nil
	}
	var ans []bool
	var err error
	if l.bids != nil {
		ans, err = l.bids.MemberBatchIDs(wids)
	} else {
		ans, err = l.batch.MemberBatch(l.waveWords(wids))
	}
	if err != nil {
		return err
	}
	if len(ans) != len(wids) {
		return fmt.Errorf("angluin: batch teacher answered %d of %d queries", len(ans), len(wids))
	}
	l.stats.BatchRounds++
	l.stats.BatchedQueries += len(wids)
	for i, wid := range wids {
		l.setAns(wid, ans[i])
		l.stats.MembershipQueries++
	}
	return nil
}

// waveWords materializes a wave's words for a plain BatchTeacher into
// the reused flat scratch: word symbols back to back in wvSyms,
// per-word start offsets alongside. Appends may move the flat buffer,
// so the per-word headers are carved only after it stops growing; once
// the buffers have grown, a wave costs no allocation instead of a word
// slice per query.
func (l *learner) waveWords(wids []int32) [][]string {
	l.wvSyms = l.wvSyms[:0]
	l.wvOff = l.wvOff[:0]
	for _, wid := range wids {
		l.wvOff = append(l.wvOff, int32(len(l.wvSyms)))
		l.wvSyms = l.tr.AppendWord(l.wvSyms, wid)
	}
	n := len(wids)
	words := l.wvWords[:0]
	if cap(words) < n {
		words = make([][]string, 0, n)
	}
	for i := 0; i < n; i++ {
		we := int32(len(l.wvSyms))
		if i+1 < n {
			we = l.wvOff[i+1]
		}
		words = append(words, l.wvSyms[l.wvOff[i]:we:we])
	}
	l.wvWords = words
	l.wvHigh = max(l.wvHigh, len(l.wvSyms))
	l.wvWordsHigh = max(l.wvWordsHigh, n)
	return words
}

// prefill emits the query set a pending closedness check needs — every
// unfilled cell of the rows of s[l.prefilled:] and of their one-symbol
// extensions — as one wave, in exactly the serial ask order: first the
// rows of S (the tabled loop's cells, row by row, column by column),
// then the extension rows in scan order. Cells already answered in the
// table contribute nothing, and neither do cells in the teacher's dead
// region (see Deducer), which are filled No at collection; duplicate
// words within the wave (distinct prefix·suffix splits of one word) are
// asked once, as serially. Each cell is walked once: collection records
// the cell's word ID per row (-1 for a dead one), and once the wave
// lands the answers are appended to the rows, so the scans' row calls
// that follow are pure reads. Without a batch teacher
// prefill is a no-op and the scan asks cell by cell.
func (l *learner) prefill() error {
	from := l.prefilled
	l.prefilled = len(l.s)
	if l.batch == nil && l.bids == nil {
		return nil
	}
	l.waveEpoch++
	l.wvWids = l.wvWids[:0]
	l.pfRows = l.pfRows[:0]
	l.pfCells = l.pfCells[:0]
	collect := func(id int32) {
		have := len(l.rowEnt(id).bits)
		if have == len(l.e) {
			return
		}
		l.pfRows = append(l.pfRows, id)
		for i := have; i < len(l.e); i++ {
			wid := l.cell(id, l.eSyms[i])
			l.pfCells = append(l.pfCells, wid)
			if wid < 0 || l.ans[wid] != ansUnknown || l.waveMark[wid] == l.waveEpoch {
				continue
			}
			l.waveMark[wid] = l.waveEpoch
			l.wvWids = append(l.wvWids, wid)
		}
	}
	for _, sid := range l.s[from:] {
		collect(sid)
	}
	for _, sid := range l.s[from:] {
		for ai := range l.alphabet {
			eid := l.extID(sid, ai)
			if l.isInS(eid) {
				continue // its own row and extensions are collected as an S entry
			}
			collect(eid)
		}
	}
	if err := l.askWave(l.wvWids); err != nil {
		return err
	}
	// Every recorded cell is answered now: it was answered before the
	// wave or asked in it.
	cells := l.pfCells
	for _, id := range l.pfRows {
		ent := l.rowEnt(id)
		n := len(l.e) - len(ent.bits)
		for _, wid := range cells[:n] {
			ent.bits = append(ent.bits, l.cellBit(wid))
		}
		cells = cells[n:]
	}
	return nil
}
