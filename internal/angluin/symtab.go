package angluin

import "sync"

// SymbolTable interns alphabet symbols to dense int32 IDs. It is the
// shared half of the learner's word intern (see Words): trie nodes
// store symbol IDs, never strings, so the hot observation-table path
// does zero string building. A table is safe for concurrent use —
// sessions learning the same spec share one through the artifact bundle
// (like the index and the data graph), so replicated daemons intern a
// document's alphabet once. IDs are append-only and never reassigned,
// which is what makes cross-session sharing sound: an ID a learner
// resolved stays valid for the table's lifetime.
type SymbolTable struct {
	mu   sync.RWMutex
	ids  map[string]int32
	syms []string
}

// NewSymbolTable builds a table pre-seeded with the given symbols (in
// order, so a fixed alphabet gets the IDs 0..n-1).
func NewSymbolTable(symbols ...string) *SymbolTable {
	t := &SymbolTable{ids: make(map[string]int32, len(symbols)+16)}
	for _, s := range symbols {
		t.ID(s)
	}
	return t
}

// ID returns the symbol's ID, assigning the next dense ID on first
// sight.
func (t *SymbolTable) ID(s string) int32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id = int32(len(t.syms))
	t.syms = append(t.syms, s)
	t.ids[s] = id
	return id
}

// AppendIDs appends the IDs of syms to dst, resolving the whole slice
// under one read lock and falling back to ID only for symbols seen for
// the first time.
func (t *SymbolTable) AppendIDs(dst []int32, syms []string) []int32 {
	base := len(dst)
	missing := false
	t.mu.RLock()
	for _, s := range syms {
		id, ok := t.ids[s]
		if !ok {
			id, missing = -1, true
		}
		dst = append(dst, id)
	}
	t.mu.RUnlock()
	if missing {
		for i, s := range syms {
			if dst[base+i] < 0 {
				dst[base+i] = t.ID(s)
			}
		}
	}
	return dst
}

// Sym returns the symbol for an ID previously returned by ID.
func (t *SymbolTable) Sym(id int32) string {
	t.mu.RLock()
	s := t.syms[id]
	t.mu.RUnlock()
	return s
}

// Len reports how many symbols the table holds.
func (t *SymbolTable) Len() int {
	t.mu.RLock()
	n := len(t.syms)
	t.mu.RUnlock()
	return n
}
