package xq

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// ctxErr reports a context cancellation as a wrapped error, so callers
// can match it with errors.Is(err, context.Canceled) or DeadlineExceeded.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("xq: evaluation canceled: %w", err)
	}
	return nil
}

// Value is an evaluation result item: a node's typed value or a
// computed atomic. A computed number may leave Str empty (the compiled
// executor's scaled operands do); its text is then NumValue's
// rendering, produced only when a comparison reads it (see text).
type Value struct {
	Node  *xmldoc.Node // nil for computed values
	Str   string
	Num   float64
	IsNum bool
}

// NodeValue converts a node to its atomized value (data() semantics:
// the concatenated text; numeric when it parses as a number).
func NodeValue(n *xmldoc.Node) Value {
	s := strings.TrimSpace(n.Text())
	f, ok := parseNumber(s)
	return Value{Node: n, Str: s, Num: f, IsNum: ok}
}

// parseNumber parses s as a float64 when ParseFloat accepts it. A
// byte-class pre-filter answers exactly for the strings ParseFloat
// would reject — ordinary text and digit-led dates such as
// "07/05/2000" — so atomizing them skips the *NumError each rejection
// allocates.
func parseNumber(s string) (float64, bool) {
	if !maybeFloat(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		// ParseFloat returns ±Inf with a range error; a non-number's
		// Num must stay 0 (sum and avg read Num unconditionally).
		return 0, false
	}
	return f, true
}

// floatBytes marks every byte ParseFloat's syntax can contain: digits,
// signs, the point, underscores, hex digits and the x/p of hex floats,
// and the letters of inf, infinity and nan in either case.
var floatBytes = func() (t [256]bool) {
	for _, c := range []byte("0123456789+-._abcdefABCDEFxXpPiInNtTyY") {
		t[c] = true
	}
	return t
}()

// maybeFloat reports whether s could parse as a float: ParseFloat
// accepts only strings that start with a digit, sign, point, or an
// inf/nan spelling and that hold no byte outside floatBytes.
func maybeFloat(s string) bool {
	if s == "" {
		return false
	}
	switch s[0] {
	case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '+', '-', '.',
		'i', 'I', 'n', 'N':
	default:
		return false
	}
	for i := 1; i < len(s); i++ {
		if !floatBytes[s[i]] {
			return false
		}
	}
	return true
}

// NumValue returns a numeric value.
func NumValue(f float64) Value {
	return Value{Str: strconv.FormatFloat(f, 'g', -1, 64), Num: f, IsNum: true}
}

// StrValue returns a string value (numeric if it parses).
func StrValue(s string) Value {
	f, ok := parseNumber(s)
	return Value{Str: s, Num: f, IsNum: ok}
}

// Env is a variable assignment.
type Env map[string]*xmldoc.Node

// scope is the evaluator's internal environment: an immutable linked
// stack of variable bindings. Extending a scope allocates one small
// frame instead of cloning a map — the dominant allocation of the
// binding enumeration — and lookups walk a chain whose depth is the
// binding-chain depth (single digits), cheaper than a map probe at
// that size. The nearest frame wins, which matches map-overwrite
// semantics for rebound names.
type scope struct {
	name string
	node *xmldoc.Node
	up   *scope
}

// lookup returns the binding of name, or nil.
func (s *scope) lookup(name string) *xmldoc.Node {
	for f := s; f != nil; f = f.up {
		if f.name == name {
			return f.node
		}
	}
	return nil
}

// with returns the scope extended by one binding.
func (s *scope) with(name string, n *xmldoc.Node) *scope {
	return &scope{name: name, node: n, up: s}
}

// env materializes the scope as an Env map (nearest frame wins).
func (s *scope) env() Env {
	out := Env{}
	for f := s; f != nil; f = f.up {
		if _, ok := out[f.name]; !ok {
			out[f.name] = f.node
		}
	}
	return out
}

// scopeOf lifts an Env map into a scope chain. Frame order is the map's
// iteration order, which is fine: lookups are order-insensitive because
// map keys are unique.
func scopeOf(env Env) *scope {
	var s *scope
	for k, v := range env {
		s = s.with(k, v)
	}
	return s
}

// Evaluator computes extents and full results of XQ-Trees over one
// source document. DFAs for binding paths are cached per rendered
// expression.
//
// An Evaluator is not goroutine-safe: the DFA cache and the
// acceleration-layer caches (accel.go) are mutated during evaluation.
// Sessions own one evaluator each, matching the repository's
// concurrency model; the only cross-evaluator structures are the
// immutable document, an optional prebuilt Index (immutable after
// construction), and an optional SharedExtents store, which is
// internally synchronized.
type Evaluator struct {
	Doc      *xmldoc.Document
	alphabet []string
	dfas     map[string]*pathre.DFA
	// dfaSyms caches, per compiled DFA, the document-symbol →
	// DFA-alphabet-index row the columnar walk steps with (exec.go).
	dfaSyms map[*pathre.DFA][]int32

	// Acceleration layer (accel.go). accel is on by default; the caches
	// are lazy. extents is the one cache keyed on mutable query state
	// and has an explicit invalidation hook (InvalidateExtents); every
	// other cache keys on the immutable document only.
	accel       bool
	idx         *Index
	pathCache   map[pathCacheKey][]*xmldoc.Node
	simpleCache map[simpleCacheKey][]*xmldoc.Node
	relayIdx    map[relayKey]map[string][]*xmldoc.Node
	extents     map[*Node]map[string][]*xmldoc.Node
	extentCount int
	// shared is the optional cross-evaluator extent store (attach with
	// ShareExtents; detached by InvalidateExtents).
	shared *SharedExtents
	// extentSeen/relaySeen are epoch-stamped dedup marks; lbuf/rbuf and
	// relayBuf are operand-value scratch reused across atom evaluations.
	extentSeen seenSet
	relaySeen  seenSet
	lbuf, rbuf []Value
	relayBuf   []Value
	pinScratch [1]*xmldoc.Node
	// Plan/execute split (plan.go, exec.go). compile is on by default;
	// plans is the evaluator-local compiled-plan cache, sharedPlan an
	// optional cross-evaluator plan set (AdoptPlan), and exe the
	// executor's arena scratch. Plans bake in predicate and path state,
	// so they invalidate with the extent memo.
	compile    bool
	plans      map[*Node]*nodePlan
	sharedPlan *TreePlan
	exe        execArena
	// comp is the plan compiler's scratch arena (compilearena.go); it
	// resets exactly when plans drops.
	comp compileArena
	// stats counts cache hits/misses (cachestats.go); snapshot with
	// CacheStats.
	stats CacheStats
}

// NewEvaluator builds an evaluator over doc. The DFA alphabet is the
// document's label set (learning and evaluation are relative to the
// instance, as XQI is in the paper).
func NewEvaluator(doc *xmldoc.Document) *Evaluator {
	return &Evaluator{Doc: doc, alphabet: doc.Alphabet(), dfas: map[string]*pathre.DFA{}, accel: true, compile: true}
}

// NewEvaluatorWithIndex builds an evaluator over the document of a
// prebuilt index, adopting the index (and its captured alphabet)
// instead of rebuilding either. The index must have been built for the
// same document the evaluator will serve; it is read-only here, so any
// number of evaluators — concurrent ones included — may adopt one
// index (the artifact store's sharing model).
func NewEvaluatorWithIndex(ix *Index) *Evaluator {
	return &Evaluator{Doc: ix.Doc(), alphabet: ix.Alphabet(), dfas: map[string]*pathre.DFA{}, accel: true, compile: true, idx: ix}
}

func (e *Evaluator) dfa(p pathre.Expr) *pathre.DFA {
	_, d := e.dfaKeyed(p)
	return d
}

// dfaKeyed is dfa plus the rendered cache key, for callers (the plan
// compiler) that need both — one render instead of two.
func (e *Evaluator) dfaKeyed(p pathre.Expr) (string, *pathre.DFA) {
	key := pathre.String(p)
	if d, ok := e.dfas[key]; ok {
		return key, d
	}
	var d *pathre.DFA
	if e.idx != nil {
		// Share compilations through the index: every evaluator adopting
		// one index (sessions, teachers, shared plans) compiles each
		// expression once per document instead of once per evaluator. The
		// index alphabet is the same document label set as e.alphabet.
		d = e.idx.dfaFor(key, p)
	} else {
		d = pathre.Compile(p, e.alphabet)
	}
	e.dfas[key] = d
	return key, d
}

// PathNodes returns the nodes reachable from start (the document node
// when start is nil) by a label sequence accepted by p, in document
// order. Results are memoized per (start, expression) when acceleration
// is on; callers must not mutate the returned slice.
func (e *Evaluator) PathNodes(start *xmldoc.Node, p pathre.Expr) []*xmldoc.Node {
	if start == nil {
		start = e.Doc.DocNode()
	}
	if !e.accel || start.Document() != e.Doc {
		return e.pathNodesWalk(start, p)
	}
	key := pathCacheKey{start: start.ID, expr: pathre.String(p)}
	if out, ok := e.pathCache[key]; ok {
		e.stats.Path.Hits++
		return out
	}
	e.stats.Path.Misses++
	var out []*xmldoc.Node
	if start == e.Doc.DocNode() {
		out = e.pathNodesIndexed(e.dfa(p))
	} else {
		out = e.pathNodesFrom(start, e.dfa(p))
	}
	if len(e.pathCache) >= pathCacheMax {
		e.pathCache = nil
	}
	if e.pathCache == nil {
		e.pathCache = map[pathCacheKey][]*xmldoc.Node{}
	}
	e.pathCache[key] = out
	return out
}

// pathNodesWalk is the naive enumeration: one DFA walk over the whole
// subtree under start.
func (e *Evaluator) pathNodesWalk(start *xmldoc.Node, p pathre.Expr) []*xmldoc.Node {
	return e.pathNodesWalkDFA(start, e.dfa(p))
}

// pathNodesWalkDFA is the pointer-tree DFA walk (the columnar variant
// lives in exec.go; see pathNodesFrom).
func (e *Evaluator) pathNodesWalkDFA(start *xmldoc.Node, d *pathre.DFA) []*xmldoc.Node {
	var out []*xmldoc.Node
	var walk func(n *xmldoc.Node, state int)
	walk = func(n *xmldoc.Node, state int) {
		for _, a := range n.Attrs {
			if s := d.Step(state, a.Label()); s >= 0 && d.Accept[s] {
				out = append(out, a)
			}
		}
		for _, c := range n.Children {
			if c.Kind != xmldoc.ElementNode {
				continue
			}
			s := d.Step(state, c.Label())
			if s < 0 {
				continue
			}
			if d.Accept[s] {
				out = append(out, c)
			}
			walk(c, s)
		}
	}
	walk(start, d.Start)
	return out
}

// Matches reports whether target is reachable from start via p, i.e.
// the relative label path from start to target is accepted.
func (e *Evaluator) Matches(start *xmldoc.Node, p pathre.Expr, target *xmldoc.Node) bool {
	if start == nil {
		start = e.Doc.DocNode()
	}
	// Collect labels from start (exclusive) to target (inclusive).
	var rev []string
	cur := target
	for cur != nil && cur != start {
		rev = append(rev, cur.Label())
		cur = cur.Parent
	}
	if cur != start {
		return false
	}
	labels := make([]string, len(rev))
	for i := range rev {
		labels[i] = rev[len(rev)-1-i]
	}
	return e.dfa(p).Accepts(labels)
}

// EvalSimplePath evaluates a child-axis simple path from start,
// honoring positional selectors.
func EvalSimplePath(start *xmldoc.Node, p SimplePath) []*xmldoc.Node {
	cur := []*xmldoc.Node{start}
	for _, st := range p {
		var next []*xmldoc.Node
		for _, n := range cur {
			if strings.HasPrefix(st.Name, "@") {
				if a := n.AttrNode(st.Name[1:]); a != nil {
					next = append(next, a)
				}
				continue
			}
			matched := n.ChildElementsNamed(st.Name)
			switch {
			case st.Pos == 0:
				next = append(next, matched...)
			case st.Pos == LastPos:
				if len(matched) > 0 {
					next = append(next, matched[len(matched)-1])
				}
			case st.Pos <= len(matched):
				next = append(next, matched[st.Pos-1])
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// operandValuesInto evaluates an operand under sc, appending the values
// to dst. Callers pass a reusable scratch slice; the returned slice
// aliases it.
func (e *Evaluator) operandValuesInto(dst []Value, o Operand, sc *scope) []Value {
	base := len(dst)
	if o.IsConst {
		dst = append(dst, StrValue(o.Const))
	} else {
		start := sc.lookup(o.Var)
		if start == nil {
			return dst
		}
		for _, n := range e.simplePath(start, o.Path) {
			dst = append(dst, e.nodeValue(n))
		}
	}
	if o.Mul != 0 && o.Mul != 1 {
		scaled := dst[:base]
		for _, v := range dst[base:] {
			if v.IsNum {
				scaled = append(scaled, NumValue(v.Num*o.Mul))
			}
		}
		dst = scaled
	}
	return dst
}

// text returns v's string form. A number with no text is a computed
// one, since every numeric node value and rendered number has text.
func (v Value) text() string {
	if v.Str == "" && v.IsNum {
		return formatNum(v.Num)
	}
	return v.Str
}

func compareValues(op CmpOp, l, r Value) bool {
	if op == OpContains {
		return strings.Contains(l.text(), r.text())
	}
	if l.IsNum && r.IsNum {
		switch op {
		case OpEq:
			return l.Num == r.Num
		case OpNe:
			return l.Num != r.Num
		case OpLt:
			return l.Num < r.Num
		case OpLe:
			return l.Num <= r.Num
		case OpGt:
			return l.Num > r.Num
		case OpGe:
			return l.Num >= r.Num
		}
	}
	ls, rs := l.text(), r.text()
	switch op {
	case OpEq:
		return ls == rs
	case OpNe:
		return ls != rs
	case OpLt:
		return ls < rs
	case OpLe:
		return ls <= rs
	case OpGt:
		return ls > rs
	case OpGe:
		return ls >= rs
	}
	return false
}

// atomHolds implements XQuery general-comparison semantics: the
// comparison holds if some pair of values from the two operand
// sequences satisfies it. OpEmpty tests the left sequence for emptiness.
func (e *Evaluator) atomHolds(a Cmp, sc *scope) bool {
	e.lbuf = e.operandValuesInto(e.lbuf[:0], a.L, sc)
	lv := e.lbuf
	if a.Op == OpEmpty {
		return len(lv) == 0
	}
	if a.Op == OpExists {
		return len(lv) > 0
	}
	e.rbuf = e.operandValuesInto(e.rbuf[:0], a.R, sc)
	rv := e.rbuf
	for _, l := range lv {
		for _, r := range rv {
			if compareValues(a.Op, l, r) {
				return true
			}
		}
	}
	return false
}

// PredHolds evaluates a predicate under env.
func (e *Evaluator) PredHolds(p *Pred, env Env) bool {
	return e.predHolds(p, scopeOf(env))
}

func (e *Evaluator) predHolds(p *Pred, sc *scope) bool {
	res := e.predBody(p, sc)
	if p.Negated {
		return !res
	}
	return res
}

func (e *Evaluator) predBody(p *Pred, sc *scope) bool {
	if !p.HasRelay() {
		for _, a := range p.Atoms {
			if !e.atomHolds(a, sc) {
				return false
			}
		}
		return true
	}
	var start *xmldoc.Node
	if p.RelayFrom == "" {
		start = e.Doc.DocNode()
	} else if start = sc.lookup(p.RelayFrom); start == nil {
		return false
	}
	for _, w := range e.relayCandidates(start, p, sc) {
		inner := sc.with(p.RelayVar, w)
		ok := true
		for _, a := range p.Atoms {
			if !e.atomHolds(a, inner) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// bindingsInto enumerates the candidate nodes of n's for clause under
// sc into dst, filtered by n's where predicates and ordered by its sort
// keys. If pinned contains n.Var, the enumeration is restricted to that
// node ("ve is e" conjunct of the extent definition). The returned
// slice aliases dst, which callers recycle through the scratch pool.
func (e *Evaluator) bindingsInto(dst []*xmldoc.Node, n *Node, sc *scope, pinned Env) []*xmldoc.Node {
	var start *xmldoc.Node
	if n.From != "" {
		start = sc.lookup(n.From)
		if start == nil {
			return dst
		}
	}
	cands := e.PathNodes(start, n.Path)
	if pin, ok := pinned[n.Var]; ok {
		found := false
		for _, c := range cands {
			if c == pin {
				found = true
				break
			}
		}
		if !found {
			return dst
		}
		e.pinScratch[0] = pin
		cands = e.pinScratch[:]
	}
	base := len(dst)
	for _, c := range cands {
		inner := sc.with(n.Var, c)
		ok := true
		for _, p := range n.Where {
			if !e.predHolds(p, inner) {
				ok = false
				break
			}
		}
		if ok {
			dst = append(dst, c)
		}
	}
	if len(n.OrderBy) > 0 {
		e.sortByKeys(dst[base:], n.OrderBy)
	}
	return dst
}

// bindingsOf lists the bindings of n's variable under sc, filtered by
// n's where predicates and ordered by its sort keys: through n's
// compiled plan when there is one, by the interpreted enumeration
// otherwise. The returned slice aliases dst.
func (e *Evaluator) bindingsOf(dst []*xmldoc.Node, n *Node, sc *scope) []*xmldoc.Node {
	if e.accel && e.compile {
		if p := e.planFor(n); p != nil {
			if out, ok := e.planBindings(dst, p, sc); ok {
				if len(n.OrderBy) > 0 {
					e.sortByKeys(out[len(dst):], n.OrderBy)
				}
				return out
			}
		}
	}
	return e.bindingsInto(dst, n, sc, nil)
}

// sortByKeys stably reorders nodes in place by the sort keys. A key's
// value is that of its path's first target: read over the index
// columns when acceleration is on, by the naive walk when it is off
// (or for a node of another document).
func (e *Evaluator) sortByKeys(nodes []*xmldoc.Node, keys []SortKey) {
	type row struct {
		n    *xmldoc.Node
		vals []Value
	}
	// steps holds every key's compiled path, back to back.
	steps := e.exe.steps[:0]
	if e.accel {
		e.Index()
		for _, key := range keys {
			for _, st := range key.Path {
				steps = append(steps, e.stepOf(st))
			}
		}
		e.exe.steps = steps
	}
	rows := make([]row, len(nodes))
	for i, n := range nodes {
		vals := make([]Value, len(keys))
		off := 0
		for k, key := range keys {
			if e.accel && n.Document() == e.Doc {
				e.exe.ids = e.walkSteps(e.exe.ids[:0], int32(n.ID), steps[off:off+len(key.Path)])
				if len(e.exe.ids) > 0 {
					vals[k] = e.idx.valueOf(e.exe.ids[0])
				}
			} else if targets := EvalSimplePath(n, key.Path); len(targets) > 0 {
				vals[k] = NodeValue(targets[0])
			}
			off += len(key.Path)
		}
		rows[i] = row{n, vals}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range keys {
			a, b := rows[i].vals[k], rows[j].vals[k]
			var less, eq bool
			switch {
			case a.IsNum && b.IsNum:
				less, eq = a.Num < b.Num, a.Num == b.Num
			case key.Numeric && a.IsNum != b.IsNum:
				// NaN-last rule: under a numeric key, values that do
				// not parse as numbers sort after every number (in both
				// directions), rather than comparing their zero Num.
				return a.IsNum
			default:
				less, eq = a.Str < b.Str, a.Str == b.Str
			}
			if eq {
				continue
			}
			if key.Descending {
				return !less
			}
			return less
		}
		return false
	})
	for i, r := range rows {
		nodes[i] = r.n
	}
}

// Extent computes EXT_{e,context}: the nodes bound to n.Var over all
// satisfying assignments of n's binding chain, with the variables in
// pinned fixed to the given nodes (paper Section 4.2). The result is
// deduplicated and in document order. The context is checked at every
// level of the binding enumeration, so a cancellation aborts promptly
// even on large instances.
func (e *Evaluator) Extent(ctx context.Context, t *Tree, n *Node, pinned Env) ([]*xmldoc.Node, error) {
	if n.Var == "" {
		return nil, fmt.Errorf("xq: Extent of %s: %w", n.Name(), ErrNoVariable)
	}
	// The fingerprint buffer is returned to the pool explicitly on each
	// path rather than via a deferred closure: the closure would be the
	// hit path's only heap allocation beyond the caller-owned result
	// copy, and this is the teacher's hottest loop (the alloc_test
	// bounds pin it).
	var fpBuf *[]byte
	var fp []byte
	if e.accel {
		fpBuf = fpPool.Get().(*[]byte)
		fp = appendPinFP((*fpBuf)[:0], pinned)
		if ext, ok := e.cachedExtent(n, fp); ok {
			putFP(fpBuf, fp)
			return ext, nil
		}
		if e.shared != nil {
			if ext, ok := e.shared.get(n, fp); ok {
				// Adopt the published slice locally (both caches treat
				// stored slices as immutable) and hand out a copy.
				e.storeExtent(n, fp, ext)
				putFP(fpBuf, fp)
				return append([]*xmldoc.Node(nil), ext...), nil
			}
		}
	}
	// Compiled path: lower the binding chain once (plan.go), then run
	// the arena executor (exec.go). The executor's result aliases the
	// arena (see "Arena ownership" in DESIGN.md), so it is copied here,
	// at the boundary, and `out` is caller-owned on every path below —
	// the arenaalias analyzer proves this function never leaks the
	// arena. The copy is not an extra allocation: it replaces the
	// second caller-copy the tail used to make on the computed path.
	var out []*xmldoc.Node
	computed := false
	if e.accel && e.compile {
		if p := e.planFor(n); p != nil {
			res, err := e.execExtent(ctx, p, pinned)
			if err != nil {
				putFP(fpBuf, fp)
				return nil, err
			}
			out = append([]*xmldoc.Node(nil), res...)
			computed = true
		}
	}
	if !computed {
		chain := n.BindingChain()
		seen := e.beginExtentSeen()
		var rec func(i int, sc *scope) error
		rec = func(i int, sc *scope) error {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if i == len(chain) {
				if b := sc.lookup(n.Var); seen.mark(b.ID) {
					out = append(out, b)
				}
				return nil
			}
			node := chain[i]
			bp := getScratch()
			bs := e.bindingsInto((*bp)[:0], node, sc, pinned)
			for _, b := range bs {
				if err := rec(i+1, sc.with(node.Var, b)); err != nil {
					*bp = bs[:0]
					putScratch(bp)
					return err
				}
			}
			*bp = bs[:0]
			putScratch(bp)
			return nil
		}
		if err := rec(0, nil); err != nil {
			if fpBuf != nil {
				putFP(fpBuf, fp)
			}
			return nil, err
		}
	}
	sortNodesByID(out)
	if e.accel {
		// Store a private copy: the caller owns `out`, while the memo and
		// the shared store (if attached) treat their slices as immutable.
		stored := append([]*xmldoc.Node(nil), out...)
		e.storeExtent(n, fp, stored)
		if e.shared != nil {
			e.shared.put(n, fp, stored)
		}
		putFP(fpBuf, fp)
	}
	return out, nil
}

// sortNodesByID orders nodes by ID, skipping the sort when the slice is
// already ordered (binding enumeration usually emits document order,
// and IDs are assigned in creation order). The fallback is a hand-run
// heapsort rather than sort.Slice: the closure the latter allocates is
// the only thing between the compiled executor and a zero-allocation
// steady state, and extents are ID-deduplicated sets, so heapsort's
// instability cannot reorder equal keys (there are none).
func sortNodesByID(out []*xmldoc.Node) {
	for i := 1; i < len(out); i++ {
		if out[i-1].ID > out[i].ID {
			heapsortNodesByID(out)
			return
		}
	}
}

func heapsortNodesByID(out []*xmldoc.Node) {
	n := len(out)
	for i := n/2 - 1; i >= 0; i-- {
		siftNodesByID(out, i, n)
	}
	for i := n - 1; i > 0; i-- {
		out[0], out[i] = out[i], out[0]
		siftNodesByID(out, 0, i)
	}
}

func siftNodesByID(out []*xmldoc.Node, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && out[child+1].ID > out[child].ID {
			child++
		}
		if out[root].ID >= out[child].ID {
			return
		}
		out[root], out[child] = out[child], out[root]
		root = child
	}
}

// Assignments enumerates every satisfying assignment of n's strict
// ancestor binding chain (all for-variables above n, with their where
// clauses applied). The returned environments do not bind n's own
// variable. A node with no binding ancestors yields one empty
// environment.
func (e *Evaluator) Assignments(ctx context.Context, t *Tree, n *Node) ([]Env, error) {
	chain := n.BindingChain()
	if n.Var != "" && len(chain) > 0 {
		chain = chain[:len(chain)-1]
	}
	scopes := []*scope{nil}
	for _, node := range chain {
		var next []*scope
		for _, sc := range scopes {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			bp := getScratch()
			bs := e.bindingsOf((*bp)[:0], node, sc)
			for _, b := range bs {
				next = append(next, sc.with(node.Var, b))
			}
			*bp = bs[:0]
			putScratch(bp)
		}
		scopes = next
	}
	out := make([]Env, len(scopes))
	for i, sc := range scopes {
		out[i] = sc.env()
	}
	return out, nil
}

// XQueryResultString evaluates the tree over the evaluator's document
// and returns the serialized result (convenience for tests and tools).
func (t *Tree) XQueryResultString(ctx context.Context, ev *Evaluator) (string, error) {
	res, err := ev.Result(ctx, t)
	if err != nil {
		return "", err
	}
	return xmldoc.XMLString(res.DocNode()), nil
}

// Result materializes the full query result as a new document.
func (e *Evaluator) Result(ctx context.Context, t *Tree) (*xmldoc.Document, error) {
	out := xmldoc.NewDocument()
	if err := e.buildInto(ctx, out, out.DocNode(), t.Root, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// buildInto evaluates node n under sc, appending its produced items to
// parent in the output document.
func (e *Evaluator) buildInto(ctx context.Context, out *xmldoc.Document, parent *xmldoc.Node, n *Node, sc *scope) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if n.Var == "" {
		return e.emitRet(ctx, out, parent, n.Ret, sc)
	}
	bp := getScratch()
	bs := e.bindingsOf((*bp)[:0], n, sc)
	for _, b := range bs {
		if err := e.emitRet(ctx, out, parent, n.Ret, sc.with(n.Var, b)); err != nil {
			*bp = bs[:0]
			putScratch(bp)
			return err
		}
	}
	*bp = bs[:0]
	putScratch(bp)
	return nil
}

func (e *Evaluator) emitRet(ctx context.Context, out *xmldoc.Document, parent *xmldoc.Node, r RetExpr, sc *scope) error {
	switch t := r.(type) {
	case nil:
	case RElem:
		el := out.CreateElement(parent, t.Tag)
		for _, k := range t.Kids {
			if err := e.emitRet(ctx, out, el, k, sc); err != nil {
				return err
			}
		}
	case RSeq:
		for _, k := range t.Items {
			if err := e.emitRet(ctx, out, parent, k, sc); err != nil {
				return err
			}
		}
	case RVar:
		if n := sc.lookup(t.Name); n != nil {
			return emitNode(out, parent, n)
		}
	case RPath:
		if start := sc.lookup(t.Var); start != nil {
			for _, n := range EvalSimplePath(start, t.Path) {
				if err := emitNode(out, parent, n); err != nil {
					return err
				}
			}
		}
	case RChild:
		return e.buildInto(ctx, out, parent, t.Node, sc)
	case RText:
		return emitText(out, parent, t.Value)
	case RNum:
		return emitText(out, parent, formatNum(t.Value))
	case RFunc, RBin:
		vals, err := e.evalSeq(r, sc)
		if err != nil {
			return err
		}
		for _, v := range vals {
			if v.Node != nil && !v.IsNum {
				err = emitNode(out, parent, v.Node)
			} else {
				err = emitText(out, parent, v.Str)
			}
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("xq: unknown return expression %T", r)
	}
	return nil
}

// emitText appends text under parent. The result's document node holds
// elements only, so text at the top level — an atomic query such as
// "0", or a bound attribute returned bare — is an error.
func emitText(out *xmldoc.Document, parent *xmldoc.Node, s string) error {
	if parent.Kind == xmldoc.DocumentNode {
		return fmt.Errorf("xq: result text %q outside any element", s)
	}
	out.CreateText(parent, s)
	return nil
}

// emitNode copies a source node under parent: an element with its
// subtree, an attribute or text node as its text.
func emitNode(out *xmldoc.Document, parent, n *xmldoc.Node) error {
	if n.Kind == xmldoc.AttributeNode || n.Kind == xmldoc.TextNode {
		return emitText(out, parent, n.Value)
	}
	out.ImportSubtree(parent, n)
	return nil
}

// formatNum renders a computed number for output text. It uses the same
// 'g' format as NumValue, so a number prints identically whether it
// reaches the output through a Value or directly from an RNum literal.
func formatNum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// evalSeq evaluates a return expression to a value sequence (used for
// function arguments and computed content, Nested Drop Boxes).
func (e *Evaluator) evalSeq(r RetExpr, sc *scope) ([]Value, error) {
	switch t := r.(type) {
	case nil:
		return nil, nil
	case RVar:
		if n := sc.lookup(t.Name); n != nil {
			return []Value{e.nodeValue(n)}, nil
		}
		return nil, nil
	case RPath:
		start := sc.lookup(t.Var)
		if start == nil {
			return nil, nil
		}
		var out []Value
		for _, n := range EvalSimplePath(start, t.Path) {
			out = append(out, e.nodeValue(n))
		}
		return out, nil
	case RText:
		return []Value{StrValue(t.Value)}, nil
	case RNum:
		return []Value{NumValue(t.Value)}, nil
	case RSeq:
		var out []Value
		for _, k := range t.Items {
			vs, err := e.evalSeq(k, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	case RElem:
		var out []Value
		for _, k := range t.Kids {
			vs, err := e.evalSeq(k, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	case RChild:
		return e.childSeq(t.Node, sc)
	case RBin:
		lv, err := e.evalSeq(t.L, sc)
		if err != nil {
			return nil, err
		}
		rv, err := e.evalSeq(t.R, sc)
		if err != nil {
			return nil, err
		}
		if len(lv) == 0 || len(rv) == 0 {
			return nil, nil
		}
		l, r := lv[0].Num, rv[0].Num
		var res float64
		switch t.Op {
		case "+":
			res = l + r
		case "-":
			res = l - r
		case "*":
			res = l * r
		case "div", "/":
			res = l / r
		default:
			return nil, fmt.Errorf("xq: unknown arithmetic operator %q", t.Op)
		}
		return []Value{NumValue(res)}, nil
	case RFunc:
		return e.evalFunc(t, sc)
	default:
		return nil, fmt.Errorf("xq: cannot evaluate %T as a sequence", r)
	}
}

// childSeq evaluates a child fragment to the sequence of values it
// produces under sc.
func (e *Evaluator) childSeq(n *Node, sc *scope) ([]Value, error) {
	if n.Var == "" {
		return e.evalSeq(n.Ret, sc)
	}
	var out []Value
	bp := getScratch()
	bs := e.bindingsOf((*bp)[:0], n, sc)
	for _, b := range bs {
		vs, err := e.evalSeq(n.Ret, sc.with(n.Var, b))
		if err != nil {
			*bp = bs[:0]
			putScratch(bp)
			return nil, err
		}
		out = append(out, vs...)
	}
	*bp = bs[:0]
	putScratch(bp)
	return out, nil
}

func (e *Evaluator) evalFunc(f RFunc, sc *scope) ([]Value, error) {
	var args []Value
	for _, a := range f.Args {
		vs, err := e.evalSeq(a, sc)
		if err != nil {
			return nil, err
		}
		args = append(args, vs...)
	}
	switch f.Name {
	case "count":
		return []Value{NumValue(float64(len(args)))}, nil
	case "sum":
		s := 0.0
		for _, v := range args {
			s += v.Num
		}
		return []Value{NumValue(s)}, nil
	case "avg":
		if len(args) == 0 {
			return nil, nil
		}
		s := 0.0
		for _, v := range args {
			s += v.Num
		}
		return []Value{NumValue(s / float64(len(args)))}, nil
	case "min", "max":
		if len(args) == 0 {
			return nil, nil
		}
		best := args[0]
		for _, v := range args[1:] {
			less := v.Num < best.Num
			if !v.IsNum || !best.IsNum {
				less = v.Str < best.Str
			}
			if (f.Name == "min") == less {
				best = v
			}
		}
		return []Value{best}, nil
	case "distinct", "distinct-values":
		seen := map[string]bool{}
		var out []Value
		for _, v := range args {
			if !seen[v.Str] {
				seen[v.Str] = true
				out = append(out, v)
			}
		}
		return out, nil
	case "data", "string":
		return args, nil
	case "zero-or-one", "exactly-one":
		if len(args) > 0 {
			return args[:1], nil
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("xq: unknown function %q", f.Name)
	}
}
