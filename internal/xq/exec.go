package xq

import (
	"context"
	"slices"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// execArena is the executor's reusable scratch: the slot environment,
// the output accumulator, the per-level probe selections, and the
// node-ID buffers of the simple-path walks. Ownership
// rule (one home: "Arena ownership" in DESIGN.md, enforced by the
// arenaalias analyzer): everything here is owned by the evaluator and
// valid only until the next execExtent call — execExtent returns a
// slice aliasing out, and Extent copies it at the boundary, so no
// arena memory ever escapes the evaluator. Steady state performs zero
// heap allocations: candidates stream out of the path caches and probe
// tables, values and classes out of the index's columns, and the arena
// absorbs everything per-row.
type execArena struct {
	env []*xmldoc.Node
	out []*xmldoc.Node
	// sel[i] holds the candidates level i's probe admitted. Each level
	// has its own, as a level's selection must outlive the loops of the
	// levels inside it.
	sel [][]*xmldoc.Node
	// pos gathers probe positions across several classes.
	pos []int32
	// walk/front are the frontier of a multi-step path walk; ids, lhs
	// and rhs receive operand targets (then classes); keys the probed
	// classes; relay the relay set walked from a binding.
	walk, front   []int32
	ids, lhs, rhs []int32
	keys, relay   []int32
	// steps holds sortByKeys' compiled key paths (outside execExtent).
	steps []stepPlan
}

// capSum totals the arena's buffer capacities; an unchanged sum across
// a run means the run grew no buffer.
func (a *execArena) capSum() int {
	n := cap(a.env) + cap(a.out) + cap(a.sel) + cap(a.pos) + cap(a.walk) + cap(a.front) +
		cap(a.ids) + cap(a.lhs) + cap(a.rhs) + cap(a.keys) + cap(a.relay)
	for _, s := range a.sel {
		n += cap(s)
	}
	return n
}

// execExtent runs a compiled plan under the pinned environment. The
// returned slice aliases the arena and is valid until the next call.
func (e *Evaluator) execExtent(ctx context.Context, p *nodePlan, pinned Env) ([]*xmldoc.Node, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	caps := e.exe.capSum()
	e.resetEnv(p)
	e.exe.out = e.exe.out[:0]
	if !p.dead {
		seen := e.beginExtentSeen()
		if err := e.execLevel(ctx, p, 0, pinned, seen); err != nil {
			return nil, err
		}
	}
	if e.exe.capSum() == caps {
		e.stats.Arena.Hits++
	} else {
		e.stats.Arena.Misses++
	}
	return e.exe.out, nil
}

// execLevel enumerates level i's candidates, filters them through the
// level's predicates, and recurses; the innermost level emits the
// plan's own binding. The context is checked per level entry — the
// same cancellation granularity as the interpreted enumeration.
func (e *Evaluator) execLevel(ctx context.Context, p *nodePlan, i int, pinned Env, seen *seenSet) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if i == len(p.levels) {
		if b := e.exe.env[i-1]; seen.mark(b.ID) {
			e.exe.out = append(e.exe.out, b)
		}
		return nil
	}
	lv := &p.levels[i]
	pin, pinOK := pinned[lv.varName]
	for _, c := range e.levelCands(lv, i) {
		if pinOK && c != pin {
			continue
		}
		e.exe.env[i] = c
		if !e.levelPredsHold(lv) {
			continue
		}
		if err := e.execLevel(ctx, p, i+1, pinned, seen); err != nil {
			return err
		}
	}
	return nil
}

// planBindings lists the bindings of a query node's own variable under
// the ancestor bindings in sc, through the node's compiled plan: the
// plan's last level d enumerates them, with the ancestor bindings in
// slots 0..d-1 and the relay variable at slot d+1, exactly as
// execExtent's innermost level would. Order by is the caller's. ok is
// false when sc is not exactly the plan's ancestor chain (or the plan
// is dead); the caller then enumerates interpreted, which resolves
// names through the scope itself.
func (e *Evaluator) planBindings(dst []*xmldoc.Node, p *nodePlan, sc *scope) (out []*xmldoc.Node, ok bool) {
	if p.dead {
		return dst, false
	}
	d := len(p.levels) - 1
	e.resetEnv(p)
	f := sc
	for j := d - 1; j >= 0; j-- {
		if f == nil || f.name != p.levels[j].varName {
			return dst, false
		}
		e.exe.env[j] = f.node
		f = f.up
	}
	if f != nil {
		return dst, false
	}
	lv := &p.levels[d]
	for _, c := range e.levelCands(lv, d) {
		e.exe.env[d] = c
		if e.levelPredsHold(lv) {
			dst = append(dst, c)
		}
	}
	return dst, true
}

// resetEnv sizes the slot environment for p and clears it.
func (e *Evaluator) resetEnv(p *nodePlan) {
	if need := p.relaySlot + 1; cap(e.exe.env) < need {
		e.exe.env = make([]*xmldoc.Node, need)
	}
	e.exe.env = e.exe.env[:p.relaySlot+1]
	clear(e.exe.env)
}

// levelCands returns level i's candidate bindings under the current
// slot environment: the compile-time root candidates (only those its
// probe admits, when it has one), or the level's path from the binding
// it starts at.
func (e *Evaluator) levelCands(lv *levelPlan, i int) []*xmldoc.Node {
	if lv.fromSlot >= 0 {
		return e.planPathNodes(e.exe.env[lv.fromSlot], lv)
	}
	if lv.probe == nil {
		return lv.rooted
	}
	pr := lv.probe
	tab := e.probeTable(pr)
	keys := e.probeKeys(pr)
	for len(e.exe.sel) <= i {
		e.exe.sel = append(e.exe.sel, nil)
	}
	sel := e.exe.sel[i][:0]
	if len(keys) == 1 {
		for _, k := range tab.group(keys[0]) {
			sel = append(sel, tab.cands[k])
		}
	} else {
		// Several classes: merge their groups back into candidate order,
		// each candidate once.
		pos := e.exe.pos[:0]
		for _, cl := range keys {
			pos = append(pos, tab.group(cl)...)
		}
		slices.Sort(pos)
		pos = slices.Compact(pos)
		e.exe.pos = pos
		for _, k := range pos {
			sel = append(sel, tab.cands[k])
		}
	}
	e.exe.sel[i] = sel
	return sel
}

// probeTable returns pr's class table, building it on first use.
func (e *Evaluator) probeTable(pr *probePlan) *classTable {
	pr.tab.once.Do(func() { e.buildProbe(pr) })
	return pr.tab
}

// probeBuilt, when set (by tests), observes every class table build.
var probeBuilt func(*classTable)

// buildProbe files every candidate of pr's table under the classes of
// its enum values. The table is fresh memory: it outlives this
// evaluator when the plan is shared.
func (e *Evaluator) buildProbe(pr *probePlan) {
	t := pr.tab
	if probeBuilt != nil {
		probeBuilt(t)
	}
	class := e.idx.valueClasses().class
	var pairs []uint64
	for k, c := range t.cands {
		ids := e.walkSteps(e.exe.ids[:0], int32(c.ID), pr.enum.steps)
		e.exe.ids = ids
		for _, id := range ids {
			if cl := class[id]; cl != noClass {
				pairs = append(pairs, uint64(cl)<<32|uint64(k))
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	t.pos = make([]int32, len(pairs))
	for i, pc := range pairs {
		if cl := int32(pc >> 32); len(t.keys) == 0 || t.keys[len(t.keys)-1] != cl {
			t.keys = append(t.keys, cl)
			t.off = append(t.off, int32(i))
		}
		t.pos[i] = int32(uint32(pc))
	}
	t.off = append(t.off, int32(len(pairs)))
	for _, v := range pr.other.constVals {
		t.constCls = append(t.constCls, e.idx.valueClass(v))
	}
}

// probeKeys returns the classes of pr's other side under the current
// environment. The table must have been built.
func (e *Evaluator) probeKeys(pr *probePlan) []int32 {
	if pr.other.isConst {
		return pr.tab.constCls
	}
	e.exe.keys = e.operandClasses(e.exe.keys[:0], &pr.other)
	return e.exe.keys
}

// levelPredsHold reports whether the candidate in the level's slot
// passes every predicate of the level.
func (e *Evaluator) levelPredsHold(lv *levelPlan) bool {
	for k := range lv.preds {
		if !e.planPredHolds(&lv.preds[k]) {
			return false
		}
	}
	return true
}

// planPathNodes is PathNodes for a compiled relative-path level: same
// cache, same contents, but the rendered-expression key comes from the
// plan, so the lookup itself never allocates.
func (e *Evaluator) planPathNodes(start *xmldoc.Node, lv *levelPlan) []*xmldoc.Node {
	if start == nil {
		return nil
	}
	key := pathCacheKey{start: start.ID, expr: lv.exprStr}
	if out, ok := e.pathCache[key]; ok {
		e.stats.Path.Hits++
		return out
	}
	e.stats.Path.Misses++
	out := e.pathNodesFrom(start, lv.dfa)
	if len(e.pathCache) >= pathCacheMax {
		e.pathCache = nil
	}
	if e.pathCache == nil {
		e.pathCache = map[pathCacheKey][]*xmldoc.Node{}
	}
	e.pathCache[key] = out
	return out
}

// pathNodesFrom walks start's subtree through d, preferring the
// columnar view when the index carries one for this document.
func (e *Evaluator) pathNodesFrom(start *xmldoc.Node, d *pathre.DFA) []*xmldoc.Node {
	if ix := e.idx; ix != nil && ix.cols != nil &&
		start.Document() == e.Doc && start.ID < len(ix.cols.Kind) {
		return ix.colsPathAppend(nil, d, e.dfaSymRow(d), int32(start.ID), d.Start)
	}
	return e.pathNodesWalkDFA(start, d)
}

// dfaSymRow returns the document-symbol → DFA-alphabet-index mapping
// for d, computed once per DFA. The mapping is DFA-specific because
// Compile unions the expression's labels into the alphabet, so two
// DFAs over one document may order their transition columns
// differently.
func (e *Evaluator) dfaSymRow(d *pathre.DFA) []int32 {
	if row, ok := e.dfaSyms[d]; ok {
		return row
	}
	n := e.Doc.NumSyms()
	row := make([]int32, n)
	for sym := 0; sym < n; sym++ {
		row[sym] = int32(d.SymIndex(e.Doc.LabelOfSym(int32(sym))))
	}
	if e.dfaSyms == nil {
		e.dfaSyms = map[*pathre.DFA][]int32{}
	}
	e.dfaSyms[d] = row
	return row
}

// colsPathAppend is the columnar DFA walk: integer child chains and
// symbol-indexed transition rows instead of pointer chasing and string
// lookups. Output order is exactly pathNodesWalk's (attributes first,
// then element children, pre-order).
func (ix *Index) colsPathAppend(out []*xmldoc.Node, d *pathre.DFA, row []int32, id int32, state int) []*xmldoc.Node {
	c := ix.cols
	for a := c.FirstAttr[id]; a >= 0; a = c.NextAttr[a] {
		if alpha := row[c.Sym[a]]; alpha >= 0 {
			if s := d.Trans[state][alpha]; s >= 0 && d.Accept[s] {
				out = append(out, ix.doc.NodeByID(int(a)))
			}
		}
	}
	for ch := c.FirstElem[id]; ch >= 0; ch = c.NextElem[ch] {
		alpha := row[c.Sym[ch]]
		if alpha < 0 {
			continue
		}
		s := d.Trans[state][alpha]
		if s < 0 {
			continue
		}
		if d.Accept[s] {
			out = append(out, ix.doc.NodeByID(int(ch)))
		}
		out = ix.colsPathAppend(out, d, row, ch, s)
	}
	return out
}

// planPredHolds evaluates one compiled predicate under the current
// slot environment.
func (e *Evaluator) planPredHolds(pp *predPlan) bool {
	res := e.planPredBody(pp)
	if pp.negated {
		return !res
	}
	return res
}

func (e *Evaluator) planPredBody(pp *predPlan) bool {
	switch {
	case pp.relaySlot < 0:
		return e.planAtomsHold(pp)
	case pp.probe != nil:
		// The relay is existential: the first candidate the table admits
		// that passes the whole conjunction decides, in any order.
		pr := pp.probe
		tab := e.probeTable(pr)
		for _, cl := range e.probeKeys(pr) {
			for _, k := range tab.group(cl) {
				e.exe.env[pp.relaySlot] = tab.cands[k]
				if e.planAtomsHold(pp) {
					return true
				}
			}
		}
	case pp.relayFromSlot == -1:
		for _, w := range pp.relayCands {
			e.exe.env[pp.relaySlot] = w
			if e.planAtomsHold(pp) {
				return true
			}
		}
	case pp.relayFromSlot >= 0:
		start := e.exe.env[pp.relayFromSlot]
		if start == nil {
			return false
		}
		ws := e.walkSteps(e.exe.relay[:0], int32(start.ID), pp.relaySteps)
		e.exe.relay = ws
		for _, w := range ws {
			e.exe.env[pp.relaySlot] = e.Doc.NodeByID(int(w))
			if e.planAtomsHold(pp) {
				return true
			}
		}
	}
	return false
}

func (e *Evaluator) planAtomsHold(pp *predPlan) bool {
	for i := range pp.atoms {
		if !e.planAtomHolds(&pp.atoms[i]) {
			return false
		}
	}
	return true
}

// planAtomHolds evaluates one compiled comparison: emptiness tests
// count targets, equality between unscaled variables intersects value
// classes, and everything else compares atomized values.
func (e *Evaluator) planAtomHolds(a *atomPlan) bool {
	switch a.op {
	case OpEmpty:
		return !e.operandNonEmpty(&a.l)
	case OpExists:
		return e.operandNonEmpty(&a.l)
	}
	if a.byClass {
		e.exe.lhs = e.operandClasses(e.exe.lhs[:0], &a.l)
		if len(e.exe.lhs) == 0 {
			return false
		}
		e.exe.rhs = e.operandClasses(e.exe.rhs[:0], &a.r)
		for _, l := range e.exe.lhs {
			if l == noClass {
				continue
			}
			for _, r := range e.exe.rhs {
				if l == r {
					return true
				}
			}
		}
		return false
	}
	e.lbuf = e.planOperandValues(e.lbuf[:0], &a.l)
	if len(e.lbuf) == 0 {
		return false
	}
	e.rbuf = e.planOperandValues(e.rbuf[:0], &a.r)
	for _, l := range e.lbuf {
		for _, r := range e.rbuf {
			if compareValues(a.op, l, r) {
				return true
			}
		}
	}
	return false
}

// operandNonEmpty reports whether o has a value: a constant that
// atomized, or a target whose value survives o's multiplier.
func (e *Evaluator) operandNonEmpty(o *operandPlan) bool {
	if o.isConst {
		return len(o.constVals) > 0
	}
	e.exe.ids = e.operandTargets(e.exe.ids[:0], o)
	if !o.scaled() {
		return len(e.exe.ids) > 0
	}
	for _, id := range e.exe.ids {
		if e.idx.isNum(id) {
			return true
		}
	}
	return false
}

// operandTargets appends the IDs of the nodes o's path reaches from
// the binding in o's slot (none for an unbound slot).
func (e *Evaluator) operandTargets(dst []int32, o *operandPlan) []int32 {
	if o.slot < 0 {
		return dst
	}
	start := e.exe.env[o.slot]
	if start == nil {
		return dst
	}
	return e.walkSteps(dst, int32(start.ID), o.steps)
}

// operandClasses appends the value class of each of variable operand
// o's values: a target's own class, or under a multiplier the class of
// each numeric target's scaled value (non-numbers drop out, as in the
// interpreter).
func (e *Evaluator) operandClasses(dst []int32, o *operandPlan) []int32 {
	base := len(dst)
	dst = e.operandTargets(dst, o)
	ix := e.idx
	class := ix.valueClasses().class
	if !o.scaled() {
		for i := base; i < len(dst); i++ {
			dst[i] = class[dst[i]]
		}
		return dst
	}
	out := dst[:base]
	for _, id := range dst[base:] {
		if ix.isNum(id) {
			out = append(out, ix.numClass(ix.nums[id]*o.mul))
		}
	}
	return out
}

// planOperandValues appends o's atomized values to dst — the compiled
// operandValuesInto: constants are pre-atomized, variables read the
// index's value column, and a scaled value is a bare number whose text
// compareValues renders only if a comparison needs it.
func (e *Evaluator) planOperandValues(dst []Value, o *operandPlan) []Value {
	if o.isConst {
		return append(dst, o.constVals...)
	}
	e.exe.ids = e.operandTargets(e.exe.ids[:0], o)
	ix := e.idx
	for _, id := range e.exe.ids {
		switch {
		case !o.scaled():
			dst = append(dst, ix.valueOf(id))
		case ix.isNum(id):
			dst = append(dst, Value{Num: ix.nums[id] * o.mul, IsNum: true})
		}
	}
	return dst
}

// walkSteps appends the IDs of the nodes a compiled simple path reaches
// from node start — EvalSimplePath over the index columns, in its
// order, with the frontier in arena scratch.
func (e *Evaluator) walkSteps(dst []int32, start int32, steps []stepPlan) []int32 {
	ix := e.idx
	switch len(steps) {
	case 0:
		return append(dst, start)
	case 1:
		return ix.stepAppend(dst, start, steps[0])
	}
	last := len(steps) - 1
	cur := append(e.exe.walk[:0], start)
	next := e.exe.front[:0]
	for _, st := range steps[:last] {
		next = next[:0]
		for _, n := range cur {
			next = ix.stepAppend(next, n, st)
		}
		cur, next = next, cur
	}
	for _, n := range cur {
		dst = ix.stepAppend(dst, n, steps[last])
	}
	e.exe.walk, e.exe.front = cur, next
	return dst
}

// stepAppend appends the nodes one step selects from node n: the
// attribute with the step's label, or the element children with it,
// narrowed to one by a position selector.
func (ix *Index) stepAppend(dst []int32, n int32, st stepPlan) []int32 {
	c := ix.cols
	if st.attr {
		for a := c.FirstAttr[n]; a >= 0; a = c.NextAttr[a] {
			if c.Sym[a] == st.sym {
				return append(dst, a)
			}
		}
		return dst
	}
	k, last := int32(0), int32(-1)
	for ch := c.FirstElem[n]; ch >= 0; ch = c.NextElem[ch] {
		if c.Sym[ch] != st.sym {
			continue
		}
		switch st.pos {
		case 0:
			dst = append(dst, ch)
		case LastPos:
			last = ch
		default:
			if k++; k == st.pos {
				return append(dst, ch)
			}
		}
	}
	if last >= 0 {
		dst = append(dst, last)
	}
	return dst
}
