package xq

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// This file is the evaluation acceleration layer: memoization and
// index-backed fast paths layered over the naive evaluator. Every fast
// path is result-identical to the naive code — the caches key on
// immutable inputs (the document, rendered path expressions, node
// identities, simple-path backing arrays that are never mutated after
// parse), candidate prefilters are verified by the unchanged predicate
// code afterwards, and index-gathered node sets are re-sorted into the
// exact walk order the naive enumeration produces. The one cache that
// depends on mutable state — the extent memo, which sees the query
// tree's where clauses — has an explicit invalidation hook
// (InvalidateExtents) that tree-mutating callers must use.
//
// Determinism guarantee: no map iteration order reaches any output;
// fingerprints sort their components and index lookups re-sort by
// document order (see DESIGN.md "Evaluation acceleration layer").

// Cache bounds. Explicit invalidation is the correctness mechanism; the
// caps are safety valves so a pathological workload cannot grow a cache
// without bound — on overflow a cache is dropped wholesale and rebuilt,
// which affects speed, never results.
const (
	// relayIndexMinSize gates the interpreted leg's equality-join index
	// (compiled plans probe value classes instead): relay scans over
	// fewer candidates are cheaper to run than to index.
	relayIndexMinSize = 8
	extentCacheMax    = 1 << 14
	pathCacheMax      = 1 << 15
	simpleCacheMax    = 1 << 17
)

// pathCacheKey memoizes PathNodes per (start node, rendered expression).
// Path expressions are interface values over slice-bearing structs, so
// the rendered string is the only comparable identity they have — and
// rendering doubles as the mutation guard for engine-rewritten paths.
type pathCacheKey struct {
	start int
	expr  string
}

// simpleCacheKey memoizes EvalSimplePath per (start node, path
// identity). A SimplePath's backing array is allocated at parse time
// and never written afterwards (the engine swaps whole Where slices,
// never individual steps), so the first-step pointer plus length
// identifies the path without rendering it; the pointer also keeps the
// array alive, so a key can never alias a recycled allocation.
type simpleCacheKey struct {
	start int
	first *Step
	n     int
}

// spKey derives the identity of a simple path for cache keys.
func spKey(p SimplePath) (*Step, int) {
	if len(p) == 0 {
		return nil, 0
	}
	return &p[0], len(p)
}

// relayKey identifies an equality-join index by start node and the
// identities of the relay and atom paths.
type relayKey struct {
	start         int
	relay, atom   *Step
	relayN, atomN int
}

// fpPool recycles the byte buffers that pinned-environment fingerprints
// are rendered into: one Get/Put pair per Extent call, shared across
// evaluators (fingerprinting also happens on the cross-session shared
// extent store's lookup path).
var fpPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// putFP returns a fingerprint buffer to the pool, keeping whatever
// capacity fp grew to. Callers must not touch fp afterwards; the map
// inserts keying on it copy the bytes (string conversion), so nothing
// retains the buffer.
func putFP(buf *[]byte, fp []byte) {
	*buf = fp[:0]
	fpPool.Put(buf)
}

// nodeScratch recycles the candidate-binding slices the evaluator walks
// during extent recursion and result construction; the slices never
// escape their loop, so pooling them removes the dominant per-binding
// allocation.
var nodeScratch = sync.Pool{New: func() any {
	s := make([]*xmldoc.Node, 0, 32)
	return &s
}}

func getScratch() *[]*xmldoc.Node  { return nodeScratch.Get().(*[]*xmldoc.Node) }
func putScratch(s *[]*xmldoc.Node) { *s = (*s)[:0]; nodeScratch.Put(s) }

// Index returns the per-document index, building it on first use. The
// index depends only on the immutable document, never on query state.
func (e *Evaluator) Index() *Index {
	if e.idx == nil {
		e.idx = NewIndex(e.Doc)
	}
	return e.idx
}

// SetAcceleration toggles the acceleration layer. It is on by default;
// turning it off clears every session-local cache and routes all
// evaluation through the naive enumeration paths (the reference
// implementation the property tests compare against). The shared index
// and shared extent store, when attached, are cross-session artifacts
// owned by the artifact store: the toggle must never mutate them, so it
// only drops this evaluator's references to its own caches.
func (e *Evaluator) SetAcceleration(on bool) {
	e.accel = on
	if !on {
		e.pathCache = nil
		e.simpleCache = nil
		e.relayIdx = nil
		e.extents = nil
		e.extentCount = 0
		// Compiled plans are part of the acceleration layer too; the
		// shared plan set stays attached (it is a cross-session artifact,
		// like the shared extent store) but is unreachable while the
		// executor is gated off.
		e.plans = nil
	}
}

// InvalidateExtents drops every memoized extent and compiled plan and
// detaches the shared extent store. Callers that mutate a query tree
// previously passed to Extent, Result, or Assignments — changing a
// node's Where, Path, or OrderBy — must invalidate before the next such
// call; extents and plans are the only caches that read mutable query
// state, so nothing else needs flushing. Detaching the
// shared store (rather than flushing it) keeps the cross-session
// invariant: shared artifacts are immutable after publish, and an
// evaluator that mutates its trees simply stops publishing.
func (e *Evaluator) InvalidateExtents() {
	e.extents = nil
	e.extentCount = 0
	e.shared = nil
	// Compiled plans resolve predicates, binding paths, and join
	// prefilters at compile time, so they are exactly as stale as the
	// extents they produced: drop the local cache and detach the shared
	// set under the same immutable-after-publish rule as the extent
	// store. Recompiles are cheap — the DFA and path caches survive.
	e.plans = nil
	e.sharedPlan = nil
	// With the local plans gone, nothing aliases the compile arena's
	// chunks any more; reclaim them for the recompiles.
	e.comp.reset()
}

// ShareExtents attaches a cross-evaluator extent store. Only evaluators
// that never mutate the query trees they compute extents for may share
// one — in this repository that is the teacher's evaluator answering
// MQ/EQ against the immutable ground truth (the engine's evaluator
// rewrites its hypothesis trees and must stay detached; its
// InvalidateExtents calls would otherwise race the store).
func (e *Evaluator) ShareExtents(s *SharedExtents) { e.shared = s }

// appendPinFP canonicalizes a pinned environment into buf: sorted
// var=nodeID pairs, so fingerprint equality is exactly environment
// equality. The empty and single-binding cases need no ordering and
// stay allocation-free (the sort.Slice call below allocates its
// closure, so unpinned extents — the common top-level question — must
// not reach it).
func appendPinFP(buf []byte, pinned Env) []byte {
	if len(pinned) == 0 {
		return buf
	}
	if len(pinned) == 1 {
		for k, v := range pinned {
			buf = append(buf, k...)
			buf = append(buf, '=')
			buf = strconv.AppendInt(buf, int64(v.ID), 10)
		}
		return buf
	}
	type kv struct {
		k  string
		id int
	}
	kvs := make([]kv, 0, len(pinned))
	for k, v := range pinned {
		kvs = append(kvs, kv{k, v.ID})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	for i, p := range kvs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, p.k...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(p.id), 10)
	}
	return buf
}

// cachedExtent returns the memoized extent for (query node, pinned
// fingerprint), if any. The fingerprint stays a byte slice: the
// two-level map lets the lookup use the compiler's zero-copy
// string(fp) map-probe, so a cache hit does not allocate a key.
func (e *Evaluator) cachedExtent(n *Node, fp []byte) ([]*xmldoc.Node, bool) {
	ext, ok := e.extents[n][string(fp)]
	if !ok {
		e.stats.Extent.Misses++
		return nil, false
	}
	e.stats.Extent.Hits++
	// Return a copy: callers own their result slice.
	return append([]*xmldoc.Node(nil), ext...), true
}

// storeExtent memoizes a computed extent. The stored slice is owned by
// the cache and treated as immutable; lookups copy on the way out.
func (e *Evaluator) storeExtent(n *Node, fp []byte, ext []*xmldoc.Node) {
	if e.extentCount >= extentCacheMax {
		e.extents = nil
		e.extentCount = 0
	}
	if e.extents == nil {
		e.extents = map[*Node]map[string][]*xmldoc.Node{}
	}
	m := e.extents[n]
	if m == nil {
		m = map[string][]*xmldoc.Node{}
		e.extents[n] = m
	}
	m[string(fp)] = ext
	e.extentCount++
}

// simplePath is EvalSimplePath with memoization: the document is
// immutable, so the result depends only on (start, path).
func (e *Evaluator) simplePath(start *xmldoc.Node, p SimplePath) []*xmldoc.Node {
	if !e.accel || len(p) == 0 || start.Document() != e.Doc {
		return EvalSimplePath(start, p)
	}
	first, n := spKey(p)
	key := simpleCacheKey{start: start.ID, first: first, n: n}
	if out, ok := e.simpleCache[key]; ok {
		e.stats.Simple.Hits++
		return out
	}
	e.stats.Simple.Misses++
	out := EvalSimplePath(start, p)
	if len(e.simpleCache) >= simpleCacheMax {
		e.simpleCache = nil
	}
	if e.simpleCache == nil {
		e.simpleCache = map[simpleCacheKey][]*xmldoc.Node{}
	}
	e.simpleCache[key] = out
	return out
}

// nodeValue is NodeValue read from the index's node-value column:
// every node's value is computed once per document, when the index is
// built, so an evaluator atomizes nothing itself.
func (e *Evaluator) nodeValue(n *xmldoc.Node) Value {
	if !e.accel || n.Document() != e.Doc {
		return NodeValue(n)
	}
	if ix := e.Index(); n.ID < ix.cols.Len() {
		return ix.value(n)
	}
	return NodeValue(n)
}

// pathNodesIndexed evaluates a document-rooted binding path through the
// distinct-root-path table: one DFA run per distinct label path in the
// instance instead of one DFA step per node. When more than one path
// group matches, the gathered groups are re-sorted by pre-order clock,
// which is exactly the naive walk order; a single matching group is
// already in document order (the index files each group's nodes in
// walk order), so the re-sort is skipped. d is compiled against the
// document alphabet: the paths' positions index its rows unless it
// added labels the document lacks, and then d steps by label.
func (e *Evaluator) pathNodesIndexed(d *pathre.DFA) []*xmldoc.Node {
	ix := e.Index()
	same := len(d.Alphabet) == len(ix.alphabet)
	var out []*xmldoc.Node
	groups := 0
	for i := range ix.paths {
		p := &ix.paths[i]
		q := d.Start
		for _, a := range p.Pos {
			if same {
				q = d.Trans[q][a]
			} else {
				q = d.Step(q, ix.alphabet[a])
			}
		}
		if d.Accept[q] {
			out = append(out, p.Nodes...)
			groups++
		}
	}
	if groups > 1 {
		slices.SortFunc(out, func(a, b *xmldoc.Node) int { return cmp.Compare(ix.pre[a.ID], ix.pre[b.ID]) })
	}
	return out
}

// valueKeys returns the join-index keys a value is filed under. Equality
// in compareValues holds numerically when both sides parse as numbers
// and textually otherwise, so a value is reachable through its
// canonical numeric key (both-numeric case) and its literal string key
// (either-side-non-numeric case); filing under both makes the index
// lookup complete for every pairing.
func valueKeys(v Value) []string {
	if v.IsNum {
		return []string{"n\x00" + strconv.FormatFloat(v.Num, 'g', -1, 64), "s\x00" + v.Str}
	}
	return []string{"s\x00" + v.Str}
}

// relayJoinIndex builds (or returns) the value index for an equality
// join: relay nodes reached by relayPath from start, keyed by the
// atomized values of their atomPath. This is the ID/IDREF case — e.g.
// "some $w in /site/people/person satisfies w/@id = data($p/person)" —
// where the naive evaluator re-scans every relay node per candidate.
func (e *Evaluator) relayJoinIndex(start *xmldoc.Node, relayPath, atomPath SimplePath) map[string][]*xmldoc.Node {
	rf, rn := spKey(relayPath)
	af, an := spKey(atomPath)
	key := relayKey{start: start.ID, relay: rf, relayN: rn, atom: af, atomN: an}
	if idx, ok := e.relayIdx[key]; ok {
		e.stats.Relay.Hits++
		return idx
	}
	e.stats.Relay.Misses++
	idx := map[string][]*xmldoc.Node{}
	for _, w := range e.simplePath(start, relayPath) {
		for _, t := range e.simplePath(w, atomPath) {
			for _, vk := range valueKeys(e.nodeValue(t)) {
				ws := idx[vk]
				if len(ws) > 0 && ws[len(ws)-1] == w {
					continue // this relay node already filed under vk
				}
				idx[vk] = append(idx[vk], w)
			}
		}
	}
	if e.relayIdx == nil {
		e.relayIdx = map[relayKey]map[string][]*xmldoc.Node{}
	}
	e.relayIdx[key] = idx
	return idx
}

// splitJoinAtom recognizes an index-friendly equality atom of a relay
// predicate: exactly one side is data(relayVar/path) (unscaled), the
// other side is a constant or mentions only outer variables. It returns
// the relay-side path and the other operand.
func splitJoinAtom(a Cmp, relayVar string) (SimplePath, Operand, bool) {
	if a.Op != OpEq {
		return nil, Operand{}, false
	}
	relayOperand := func(o Operand) bool {
		return !o.IsConst && o.Var == relayVar && (o.Mul == 0 || o.Mul == 1)
	}
	outerOperand := func(o Operand) bool { return o.IsConst || o.Var != relayVar }
	switch {
	case relayOperand(a.L) && outerOperand(a.R):
		return a.L.Path, a.R, true
	case relayOperand(a.R) && outerOperand(a.L):
		return a.R.Path, a.L, true
	}
	return nil, Operand{}, false
}

// relayCandidates returns the relay bindings worth testing for the
// predicate under sc. The naive candidate set is every node reached by
// the relay path; when the set is large and the predicate carries an
// equality-join atom, the value index narrows it to the nodes that can
// satisfy that atom. The prefilter only ever removes nodes the indexed
// atom rejects — every returned candidate still runs through the full
// atom conjunction — and candidates stay in document order.
func (e *Evaluator) relayCandidates(start *xmldoc.Node, p *Pred, sc *scope) []*xmldoc.Node {
	full := e.simplePath(start, p.RelayPath)
	if !e.accel || len(full) < relayIndexMinSize || start.Document() != e.Doc {
		return full
	}
	for _, a := range p.Atoms {
		atomPath, other, ok := splitJoinAtom(a, p.RelayVar)
		if !ok {
			continue
		}
		idx := e.relayJoinIndex(start, p.RelayPath, atomPath)
		var cands []*xmldoc.Node
		e.relayBuf = e.operandValuesInto(e.relayBuf[:0], other, sc)
		seen := e.beginRelaySeen()
		for _, v := range e.relayBuf {
			for _, vk := range valueKeys(v) {
				for _, w := range idx[vk] {
					if seen.mark(w.ID) {
						cands = append(cands, w)
					}
				}
			}
		}
		ix := e.Index()
		sort.Slice(cands, func(i, j int) bool { return ix.docOrderLess(cands[i], cands[j]) })
		return cands
	}
	return full
}

// seenSet is an epoch-stamped membership mark over dense node IDs: a
// cleared set costs one counter bump instead of a map allocation per
// extent or relay scan.
type seenSet struct {
	marks []uint32
	epoch uint32
}

// begin starts a fresh generation sized for at least n IDs.
func (s *seenSet) begin(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could alias, so clear
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
}

// mark records the ID and reports whether it was new this generation.
func (s *seenSet) mark(id int) bool {
	if id >= len(s.marks) {
		grown := make([]uint32, id+1)
		copy(grown, s.marks)
		s.marks = grown
	}
	if s.marks[id] == s.epoch {
		return false
	}
	s.marks[id] = s.epoch
	return true
}

// beginExtentSeen/beginRelaySeen start a generation of the two seen
// sets. They are distinct because a relay scan runs inside an extent
// enumeration and must not disturb its dedup marks.
func (e *Evaluator) beginExtentSeen() *seenSet {
	e.extentSeen.begin(e.Doc.NumNodes())
	return &e.extentSeen
}

func (e *Evaluator) beginRelaySeen() *seenSet {
	e.relaySeen.begin(e.Doc.NumNodes())
	return &e.relaySeen
}
