package angluin

// Deducer is an optional Teacher extension for a prefix-closed region
// of non-members: a set of words the teacher answers No without
// looking, where every extension of a dead word is dead too. The
// paper's rule R1 is such a region — once a label path is not
// realizable, no longer path through it is — and Kopystiański & Otop's
// learners with deductive inference show the pattern: an implied
// answer is never asked.
//
// The learner decides the region once per trie node. A node below a
// dead one is dead; a live node asks DeadStep for each child it lacks.
// A table cell whose word is dead is filled No on the spot: no node is
// created below the dead step, the cell is neither asked through
// Member/MemberID nor shipped in a batch wave, and
// Stats.MembershipQueries does not count it. Table
// prefixes (the rows of L*'s S ∪ S·Σ and KV's access strings and their
// one-symbol extensions) still get a node in the dead region, marked
// dead, because the tables index rows by node.
//
// Dead words are keyed by (anchor, rest): anchor is the node of the
// word's longest live prefix, rest the ID of the remaining symbols in
// the Words' rest intern. The Words records which keys it has seen, so
// Deduced hears about each dead word exactly once for the life of the
// Words — across the Learn calls of a restarted session too — and a
// teacher can charge it there.
//
// A Deducer needs WithWords, and its region must be a fixed function
// of the word for the life of the Words: liveness is decided when a
// node is created and never revisited. Nodes the caller interns itself
// (Intern, InternAlpha) are live unless they lie below a dead node.
type Deducer interface {
	// DeadStep reports whether the word of live node p extended by the
	// symbol sym lies in the dead region. It is asked only for children
	// p lacks, never while a batch is in flight.
	DeadStep(p, sym int32) bool
	// Deduced reports a dead word the learner has just seen for the
	// first time and answered No; anchor and rest are its key
	// (Words.RestLastSym, Words.AppendDeadWord read it back).
	Deduced(anchor, rest int32)
}

// deadKey is a dead word's key: its anchor node and its rest ID.
type deadKey struct{ anchor, rest int32 }

// key returns node id's dead-word key and whether the node is dead.
func (w *Words) key(id int32) (deadKey, bool) {
	n := w.node(id)
	return deadKey{n.anchor, n.rest}, n.anchor >= 0
}

// Parent returns the node of id's word without its last symbol (-1 for
// ε).
func (w *Words) Parent(id int32) int32 { return w.node(id).parent }

// Sym returns the string of a symbol ID the Words has resolved: every
// alphabet symbol and every symbol of a word it holds.
func (w *Words) Sym(sym int32) string { return w.symStr[sym] }

// RestLastSym returns the symbol ID of the last symbol of rest r.
func (w *Words) RestLastSym(r int32) int32 { return w.rests.LastSym(r) }

// AppendDeadWord appends the dead word keyed (anchor, rest) to dst.
func (w *Words) AppendDeadWord(dst []string, anchor, rest int32) []string {
	return w.rests.AppendWord(w.AppendWord(dst, anchor), rest)
}

// restChild returns rest r extended by sym, interning it on first
// sight.
func (w *Words) restChild(r, sym int32) int32 {
	rs := w.restTrie()
	if int(sym) >= len(rs.symStr) || rs.symStr[sym] == "" {
		rs.note(sym, w.symStr[sym])
	}
	return rs.step(r, sym)
}

// restWalk returns rest r extended by syms.
func (w *Words) restWalk(r int32, syms []int32) int32 {
	for _, sym := range syms {
		r = w.restChild(r, sym)
	}
	return r
}

// restTrie returns the rest intern, making it on first use: an empty
// Words over the same table and alphabet, whose symbol mirror starts as
// a copy of this one's.
func (w *Words) restTrie() *Words {
	if w.rests == nil {
		rs := wordsPool.Get().(*Words)
		rs.tab = w.tab
		rs.symStr = append(rs.symStr[:0], w.symStr...)
		rs.aiOf = append(rs.aiOf[:0], w.aiOf...)
		rs.alpha = append(rs.alpha[:0], w.alpha...)
		rs.dense = w.dense
		rs.reset()
		w.rests = rs
	}
	return w.rests
}

// extend returns the child of p along sym, adding it on first sight: a
// new child of a live node is dead when d says the step is. Table
// prefixes are interned this way, so a row in the dead region still
// has a node to index.
func (w *Words) extend(p, sym int32, d Deducer) int32 {
	if c := w.child(p, sym); c >= 0 {
		return c
	}
	if d != nil && w.node(p).anchor < 0 && d.DeadStep(p, sym) {
		return w.link(p, sym, p, w.restChild(0, sym))
	}
	return w.add(p, sym)
}

// internVia is Intern through extend: the word's nodes are added with
// d deciding the dead region.
func (w *Words) internVia(word []string, d Deducer) int32 {
	w.ids = w.resolve(w.ids[:0], word)
	id := int32(0)
	for _, sym := range w.ids {
		id = w.extend(id, sym, d)
	}
	return id
}

// cell returns the node of the word id·syms, adding the live nodes it
// lacks. When the word lies in d's dead region it adds nothing below
// the dead step and returns -1 with the word's key instead.
func (w *Words) cell(id int32, syms []int32, d Deducer) (int32, deadKey) {
	for i, sym := range syms {
		n := w.node(id)
		if n.anchor >= 0 {
			return -1, deadKey{n.anchor, w.restWalk(n.rest, syms[i:])}
		}
		c := w.child(id, sym)
		if c < 0 {
			if d != nil && d.DeadStep(id, sym) {
				return -1, deadKey{id, w.restWalk(0, syms[i:])}
			}
			c = w.add(id, sym)
		}
		id = c
	}
	if k, dead := w.key(id); dead {
		return -1, k
	}
	return id, deadKey{}
}

// deduce reports dead word k to d on the Words' first sight of it.
func (w *Words) deduce(d Deducer, k deadKey) {
	an := w.node(k.anchor)
	if an.rest < 0 {
		an.rest = int32(len(w.seen))
		if n := len(w.seen); n < cap(w.seen) {
			// Reuse a pooled bitset's capacity.
			w.seen = w.seen[:n+1]
			w.seen[n] = w.seen[n][:0]
		} else {
			w.seen = append(w.seen, nil)
		}
	}
	bs := w.seen[an.rest]
	i := int(k.rest >> 6)
	if i >= len(bs) {
		for i >= len(bs) {
			bs = append(bs, 0)
		}
		w.seen[an.rest] = bs
	}
	bit := uint64(1) << (k.rest & 63)
	if bs[i]&bit != 0 {
		return
	}
	bs[i] |= bit
	d.Deduced(k.anchor, k.rest)
}
