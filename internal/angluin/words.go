package angluin

import "sync"

// Words is the learner's word intern: an integer prefix trie over a
// SymbolTable. Every word the learner touches — access strings, their
// one-symbol extensions, the prefix·suffix concatenations of table
// cells, counterexamples — is a node reached by walking symbol IDs from
// the ε root, and the node's int32 ID is the word's one identity from
// the observation table through the teacher seam: the learner's
// membership table is an array indexed by ID, and an IDTeacher
// receives only the ID, so a teacher keeping its own answer state
// indexes it the same way and reads the word back (Depth, LastSym,
// AppendWord) only when it needs it. No per-word key string is ever
// built. Under a teacher's dead region (see Deducer) the trie holds
// only live words and the table prefixes; a dead cell's word is keyed
// in a side intern instead of getting a node.
//
// IDs are dense, append-only and never reassigned, so they stay valid
// for the life of the Words: a caller that learns one target over
// several Learn calls — a restart after a corrected answer — passes the
// same Words (WithWords) and keeps its ID-indexed state across them.
// A Words is not safe for concurrent use while it grows; its read
// methods (Len, Depth, LastSym, AppendWord, Word) may run on several
// goroutines at once as long as nothing interns.
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
//
// Storage is paged. Node records live in fixed-size node pages and
// dense child rows in fixed-size row pages, each page type drawn from
// its own sync.Pool and handed back by Release. Growth appends a page
// and never copies, and a Words that finds its pool empty pays for one
// page, not for regrowing every array of a 100k-node trie. Pooled pages
// hold no pointers and vanish after two idle garbage collections like
// any pooled object, so an idle process retains none of them.
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

	// nodes holds the node records, node id at
	// nodes[id>>nodePageBits][id&nodePageMask]; node 0 is the ε root.
	nodes []*nodePage
	n     int32
	// rows holds the dense child rows. A row's offset is its position
	// in the concatenation of the row pages; rows never straddle a
	// page, and rowEnd is the offset the next row starts at (or past).
	rows   []*rowPage
	rowEnd int32
	kids   map[uint64]int32

	// The dead-word registry (see Deducer). A word in the teacher's
	// dead region gets no node of its own: it is keyed by its anchor,
	// the node of its longest live prefix, and its rest, the remaining
	// symbols from the first dead one on, interned once per Words in
	// rests, a second trie over the same symbols whose node IDs are the
	// rest IDs (0, its root, is the empty rest); it is made on the first
	// dead word. seen holds one bitset over rest IDs per anchor, so each
	// dead word is reported to the teacher exactly once for the life of
	// the Words.
	rests *Words
	seen  [][]uint64

	ids []int32 // Intern's resolve scratch
}

// wnode is one trie node.
type wnode struct {
	parent int32
	sym    int32 // symbol ID of the node's last step; -1 at the root
	depth  int32 // word length
	// kidSym/kid are the inline first-child slot (kidSym -1 = no
	// children). row is -1 until a second in-alphabet child promotes
	// the node, then the offset of its dense child row.
	kidSym int32
	kid    int32
	row    int32
	// anchor is -1 for a live node. A dead node — a table prefix in the
	// dead region, which needs an ID for its row — carries its word's
	// dead-word key: anchor is the last live prefix's node and rest the
	// remainder's ID. For a live node rest is instead the index of its
	// seen bitset, -1 until a dead word below it is first seen.
	anchor int32
	rest   int32
}

const (
	nodePageBits = 12
	nodePageMask = 1<<nodePageBits - 1
	// rowPageBits sizes a row page in int32 slots: 64 rows at the
	// largest dense alphabet (denseAlphabetMax), more at smaller ones.
	rowPageBits = 14
	rowPageMask = 1<<rowPageBits - 1
)

type (
	nodePage [1 << nodePageBits]wnode
	rowPage  [1 << rowPageBits]int32
)

var (
	nodePages = sync.Pool{New: func() any { return new(nodePage) }}
	rowPages  = sync.Pool{New: func() any { return new(rowPage) }}
)

// denseAlphabetMax is the largest alphabet for which branchy nodes
// promote to dense per-parent child rows; larger alphabets stay on the
// packed map.
const denseAlphabetMax = 256

// wordsPool recycles the Words headers — their symbol mirrors, page
// tables and child map — between owners; the pages themselves travel
// through nodePages and rowPages.
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

// Release returns the Words' pages to their pools and the Words to
// its own, first dropping its symbol strings so a pooled Words pins no
// document's labels. Neither the Words nor any ID it issued may be
// used afterwards.
func (w *Words) Release() {
	for _, pg := range w.nodes {
		nodePages.Put(pg)
	}
	for _, pg := range w.rows {
		rowPages.Put(pg)
	}
	clear(w.nodes)
	w.nodes = w.nodes[:0]
	clear(w.rows)
	w.rows = w.rows[:0]
	clear(w.symStr)
	w.symStr = w.symStr[:0]
	if w.rests != nil {
		w.rests.Release()
		w.rests = nil
	}
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
	w.reset()
	w.seen = w.seen[:0]
}

// reset empties the trie to its ε root.
func (w *Words) reset() {
	w.n, w.rowEnd = 0, 0
	w.newNode(-1, -1, 0, -1, -1)
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
func (w *Words) Len() int { return int(w.n) }

// node returns node id's record. Pages never move, so the pointer stays
// valid while the Words grows.
func (w *Words) node(id int32) *wnode {
	return &w.nodes[id>>nodePageBits][id&nodePageMask]
}

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
	w.ids = w.resolve(w.ids[:0], word)
	return w.walk(0, w.ids)
}

// resolve appends the symbol IDs of word to dst, noting each symbol for
// word building.
func (w *Words) resolve(dst []int32, word []string) []int32 {
	base := len(dst)
	dst = w.tab.AppendIDs(dst, word)
	for i, sym := range dst[base:] {
		w.note(sym, word[i])
	}
	return dst
}

// walk returns the node of word id extended by the resolved symbols,
// adding the nodes it lacks.
func (w *Words) walk(id int32, syms []int32) int32 {
	for _, sym := range syms {
		id = w.step(id, sym)
	}
	return id
}

// InternAlpha is Intern for a word given as positions in the Words'
// alphabet (the alphabet NewWords was given), which need no symbol
// resolution at all.
func (w *Words) InternAlpha(pos []int32) int32 {
	id := int32(0)
	for _, ai := range pos {
		id = w.step(id, w.alpha[ai])
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
	d := w.node(id).depth
	if d == 0 {
		return nil
	}
	return w.AppendWord(make([]string, 0, d), id)
}

// Depth reports the length of node id's word.
func (w *Words) Depth(id int32) int { return int(w.node(id).depth) }

// LastSym returns the symbol-table ID of the last symbol of node id's
// word, -1 for ε. Words over one SymbolTable agree on symbol IDs, so a
// teacher compares a word's last label against a symbol by ID alone.
func (w *Words) LastSym(id int32) int32 { return w.node(id).sym }

// rowChild returns the child of p at alphabet position ai through p's
// dense child row: -1 when p is unpromoted or has no such child yet.
func (w *Words) rowChild(p int32, ai int) int32 {
	if r := w.node(p).row; r >= 0 {
		return w.rows[r>>rowPageBits][int(r&rowPageMask)+ai]
	}
	return -1
}

// child returns the child of p along symbol sym, or -1. sym must have
// been noted (through init or Intern).
func (w *Words) child(p, sym int32) int32 {
	pn := w.node(p)
	if pn.kidSym == sym {
		return pn.kid
	}
	if pn.row >= 0 {
		if ai := w.aiOf[sym]; ai >= 0 {
			return w.rows[pn.row>>rowPageBits][int(pn.row&rowPageMask)+int(ai)]
		}
	}
	if c, ok := w.kids[pack(p, sym)]; ok {
		return c
	}
	return -1
}

// newNode appends a node record, taking a fresh page when the last one
// is full, and returns its ID.
func (w *Words) newNode(p, sym, depth, anchor, rest int32) int32 {
	id := w.n
	if int(id>>nodePageBits) == len(w.nodes) {
		w.nodes = append(w.nodes, nodePages.Get().(*nodePage))
	}
	w.n++
	*w.node(id) = wnode{parent: p, sym: sym, depth: depth, kidSym: -1, kid: -1, row: -1, anchor: anchor, rest: rest}
	return id
}

// newRow carves a dense child row of len(alpha) slots, all -1, from
// the row pages and returns its offset and the row.
func (w *Words) newRow() (int32, []int32) {
	k := int32(len(w.alpha))
	if w.rowEnd&rowPageMask+k > rowPageMask+1 {
		w.rowEnd = (w.rowEnd>>rowPageBits + 1) << rowPageBits // next page
	}
	if int(w.rowEnd>>rowPageBits) == len(w.rows) {
		w.rows = append(w.rows, rowPages.Get().(*rowPage))
	}
	off := w.rowEnd
	w.rowEnd += k
	r := w.rows[off>>rowPageBits][off&rowPageMask : off&rowPageMask+k]
	for i := range r {
		r[i] = -1
	}
	return off, r
}

// add registers a new child of p along sym — the caller has checked it
// is absent — and returns its ID. A child of a dead node is dead, with
// its parent's anchor and rest extended by sym; any other child is
// live.
func (w *Words) add(p, sym int32) int32 {
	anchor, rest := int32(-1), int32(-1)
	if pn := w.node(p); pn.anchor >= 0 {
		anchor, rest = pn.anchor, w.restChild(pn.rest, sym)
	}
	return w.link(p, sym, anchor, rest)
}

// link appends a child of p along sym with the given dead-word key
// (anchor -1 and rest -1 for a live node) and hooks it under p.
func (w *Words) link(p, sym, anchor, rest int32) int32 {
	id := w.newNode(p, sym, w.node(p).depth+1, anchor, rest)
	pn := w.node(p)
	if pn.kidSym < 0 {
		pn.kidSym = sym
		pn.kid = id
		return id
	}
	if w.dense {
		if ai := w.aiOf[sym]; ai >= 0 {
			if pn.row < 0 {
				// Second in-alphabet child: promote to a dense row,
				// seeding it with the inline child (which stays findable
				// through its slot either way).
				off, r := w.newRow()
				pn.row = off
				if fai := w.aiOf[pn.kidSym]; fai >= 0 {
					r[fai] = pn.kid
				}
			}
			w.rows[pn.row>>rowPageBits][int(pn.row&rowPageMask)+int(ai)] = id
			return id
		}
	}
	if w.kids == nil {
		w.kids = make(map[uint64]int32, 1<<8)
	}
	w.kids[pack(p, sym)] = id
	return id
}

// AppendWord appends node id's word to dst and returns the extended
// slice. It allocates only when dst lacks the capacity.
func (w *Words) AppendWord(dst []string, id int32) []string {
	n := int(w.node(id).depth)
	base := len(dst)
	if cap(dst) < base+n {
		// Grow like append: doubling keeps a buffer that words are
		// appended to one after another amortized-linear instead of
		// copy-per-word.
		c := 2 * cap(dst)
		if c < base+n {
			c = base + n
		}
		grown := make([]string, base, c)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	for cur, i := id, base+n-1; cur > 0; i-- {
		nd := w.node(cur)
		dst[i] = w.symStr[nd.sym]
		cur = nd.parent
	}
	return dst
}
