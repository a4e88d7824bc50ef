package angluin

import "sync"

// Words is the learner's word intern: an integer prefix trie over a
// SymbolTable. Every word the learner touches — access strings, their
// one-symbol extensions, the prefix·suffix concatenations of table
// cells, counterexamples — is a node reached by walking symbol IDs from
// the ε root, and the node's int32 ID is the word's one identity from
// the observation table through the teacher seam: the learner's
// membership table is an array indexed by ID, and IDTeacher /
// IDBatchTeacher / Speculator receive the ID with every word, so a
// teacher keeping its own answer state indexes it the same way. No
// per-word key string is ever built.
//
// IDs are dense, append-only and never reassigned, so they stay valid
// for the life of the Words: a caller that learns one target over
// several Learn calls — a restart after a corrected answer — passes the
// same Words (WithWords) and keeps its ID-indexed state across them.
// A Words is not safe for concurrent use.
//
// Child lookup is tiered by how branchy a node actually is:
//
//   - Every node carries one inline child slot. Most nodes are links in
//     a linear word chain (a cell's prefix·suffix walk) with exactly
//     one child, so the common case allocates nothing per node.
//   - A node acquiring a second in-alphabet child — the access strings
//     the closedness scan extends by every symbol — promotes to a dense
//     child row indexed by alphabet position, when the alphabet is
//     small enough (denseAlphabetMax) for rows to beat hashing.
//   - Everything else — huge alphabets, symbols outside the fixed
//     alphabet (counterexample words can contain them) — lives in one
//     map keyed by the packed (parent<<32 | symbol) int64.
type Words struct {
	tab *SymbolTable
	// symStr mirrors tab's ID→symbol mapping for the symbols this Words
	// has resolved, so word materialization never takes the table's
	// lock. Entries for IDs other users interned stay "" until (and
	// unless) this Words resolves the same symbol.
	symStr []string
	// alpha[ai] is the symbol ID of alphabet[ai]; aiOf inverts it
	// (symbol ID → alphabet position, -1 for out-of-alphabet symbols).
	alpha []int32
	aiOf  []int32
	dense bool

	// Per-node state, index = node ID; node 0 is the ε root.
	parent []int32
	sym    []int32 // symbol ID of the node's last step; -1 at the root
	depth  []int32 // word length
	// kidSym/kid are the inline first-child slot (kidSym -1 = no
	// children). rowIdx is -1 until a second in-alphabet child promotes
	// the node, then the index of its dense child row: row r lives at
	// rowData[r*len(alpha) : (r+1)*len(alpha)]. Flat storage keeps the
	// per-node cost at 4 bytes (a slice-of-slices would spend 24 on a
	// nil header per node, and nearly all nodes are unpromoted links in
	// linear word chains).
	kidSym  []int32
	kid     []int32
	rowIdx  []int32
	rowData []int32
	kids    map[uint64]int32

	ids []int32 // Intern's resolve scratch
}

// denseAlphabetMax is the largest alphabet for which branchy nodes
// promote to dense per-parent child rows; larger alphabets stay on the
// packed map.
const denseAlphabetMax = 256

// wordsPool recycles Words between owners: NewWords adopts a pooled
// one, contents reset but array capacities intact, so only the first
// learning sessions in a process pay for growth.
var wordsPool = sync.Pool{New: func() any { return new(Words) }}

// NewWords returns an empty Words (only the ε root) over the symbol
// table — a private one when tab is nil — with alphabet as the fixed
// alphabet of the Learn/LearnKV calls it will serve. Release hands it
// back for reuse.
func NewWords(tab *SymbolTable, alphabet []string) *Words {
	w := wordsPool.Get().(*Words)
	if tab == nil {
		tab = NewSymbolTable()
	}
	w.init(tab, alphabet)
	return w
}

// Release returns the Words to the pool, first dropping its symbol
// strings so a pooled Words pins no document's labels. Neither the
// Words nor any ID it issued may be used afterwards.
func (w *Words) Release() {
	clear(w.symStr)
	w.symStr = w.symStr[:0]
	w.tab = nil
	wordsPool.Put(w)
}

func pack(p, sym int32) uint64 { return uint64(uint32(p))<<32 | uint64(uint32(sym)) }

func (w *Words) init(tab *SymbolTable, alphabet []string) {
	w.tab = tab
	w.symStr = w.symStr[:0]
	w.aiOf = w.aiOf[:0]
	w.dense = len(alphabet) <= denseAlphabetMax
	w.alpha = tab.AppendIDs(w.alpha[:0], alphabet)
	for ai, id := range w.alpha {
		w.note(id, alphabet[ai])
		w.aiOf[id] = int32(ai)
	}
	w.parent = append(w.parent[:0], -1)
	w.sym = append(w.sym[:0], -1)
	w.depth = append(w.depth[:0], 0)
	w.kidSym = append(w.kidSym[:0], -1)
	w.kid = append(w.kid[:0], -1)
	w.rowIdx = append(w.rowIdx[:0], -1)
	w.rowData = w.rowData[:0]
	clear(w.kids)
}

// hasAlphabet reports whether alphabet is, position for position, the
// alphabet the Words was built for.
func (w *Words) hasAlphabet(alphabet []string) bool {
	if len(alphabet) != len(w.alpha) {
		return false
	}
	for ai, s := range alphabet {
		if w.symStr[w.alpha[ai]] != s {
			return false
		}
	}
	return true
}

// Len reports the node count; IDs are dense in [0, Len).
func (w *Words) Len() int { return len(w.parent) }

// note records symbol id's string locally for lock-free word building.
func (w *Words) note(id int32, s string) {
	for int(id) >= len(w.symStr) {
		w.symStr = append(w.symStr, "")
		w.aiOf = append(w.aiOf, -1)
	}
	w.symStr[id] = s
}

// Intern returns the ID of word, adding the nodes it lacks. Symbols
// outside the alphabet are interned in the table as needed.
func (w *Words) Intern(word []string) int32 {
	w.ids = w.tab.AppendIDs(w.ids[:0], word)
	id := int32(0)
	for i, sym := range w.ids {
		w.note(sym, word[i])
		id = w.step(id, sym)
	}
	return id
}

// InternSyms is Intern for a word already resolved to symbol IDs of the
// Words' table, so a caller interning many words over one table
// resolves each symbol once instead of once per word.
func (w *Words) InternSyms(syms []int32) int32 {
	id := int32(0)
	for _, sym := range syms {
		if int(sym) >= len(w.symStr) || w.symStr[sym] == "" {
			w.note(sym, w.tab.Sym(sym))
		}
		id = w.step(id, sym)
	}
	return id
}

// step returns the child of p along sym, adding it on first sight.
func (w *Words) step(p, sym int32) int32 {
	if c := w.child(p, sym); c >= 0 {
		return c
	}
	return w.add(p, sym)
}

// Word returns a freshly allocated copy of node id's word (nil for ε).
func (w *Words) Word(id int32) []string {
	if w.depth[id] == 0 {
		return nil
	}
	return w.appendWord(make([]string, 0, w.depth[id]), id)
}

// row returns node p's promoted dense child row, or nil.
func (w *Words) row(p int32) []int32 {
	ri := w.rowIdx[p]
	if ri < 0 {
		return nil
	}
	off := int(ri) * len(w.alpha)
	return w.rowData[off : off+len(w.alpha)]
}

// child returns the child of p along symbol sym, or -1. sym must have
// been noted (through init, Intern or InternSyms).
func (w *Words) child(p, sym int32) int32 {
	if w.kidSym[p] == sym {
		return w.kid[p]
	}
	if r := w.row(p); r != nil {
		if ai := w.aiOf[sym]; ai >= 0 {
			return r[ai]
		}
	}
	if c, ok := w.kids[pack(p, sym)]; ok {
		return c
	}
	return -1
}

// add registers a new child of p along sym — the caller has checked it
// is absent — and returns its ID.
func (w *Words) add(p, sym int32) int32 {
	id := int32(len(w.parent))
	w.parent = append(w.parent, p)
	w.sym = append(w.sym, sym)
	w.depth = append(w.depth, w.depth[p]+1)
	w.kidSym = append(w.kidSym, -1)
	w.kid = append(w.kid, -1)
	w.rowIdx = append(w.rowIdx, -1)

	if w.kidSym[p] < 0 {
		w.kidSym[p] = sym
		w.kid[p] = id
		return id
	}
	if w.dense {
		ai := w.aiOf[sym]
		r := w.row(p)
		if r == nil && ai >= 0 {
			// Second in-alphabet child: promote to a dense row, seeding
			// it with the inline child (which stays findable through its
			// slot either way).
			w.rowIdx[p] = int32(len(w.rowData) / len(w.alpha))
			for range w.alpha {
				w.rowData = append(w.rowData, -1)
			}
			r = w.rowData[len(w.rowData)-len(w.alpha):]
			if fai := w.aiOf[w.kidSym[p]]; fai >= 0 {
				r[fai] = w.kid[p]
			}
		}
		if r != nil && ai >= 0 {
			r[ai] = id
			return id
		}
	}
	if w.kids == nil {
		w.kids = make(map[uint64]int32, 1<<8)
	}
	w.kids[pack(p, sym)] = id
	return id
}

// appendWord appends node id's word to dst, back to front.
func (w *Words) appendWord(dst []string, id int32) []string {
	n := int(w.depth[id])
	base := len(dst)
	if cap(dst) < base+n {
		// Grow like append: doubling keeps a flat multi-word buffer (the
		// batch wave's) amortized-linear instead of copy-per-word.
		c := 2 * cap(dst)
		if c < base+n {
			c = base + n
		}
		grown := make([]string, base, c)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	for cur, i := id, base+n-1; cur > 0; cur, i = w.parent[cur], i-1 {
		dst[i] = w.symStr[w.sym[cur]]
	}
	return dst
}
