package xq

import (
	"context"
	"strconv"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// execArena is the executor's reusable scratch: the slot environment,
// the output accumulator, and the join-probe key buffer. Ownership
// rule (one home: "Arena ownership" in DESIGN.md, enforced by the
// arenaalias analyzer): everything here is owned by the evaluator and
// valid only until the next execExtent call — execExtent returns a
// slice aliasing out, and Extent copies it at the boundary, so no
// arena memory ever escapes the evaluator. Steady state performs zero
// heap allocations: candidates stream out of the path caches, values
// out of the index's value column, and the arena absorbs everything
// per-row.
type execArena struct {
	env    []*xmldoc.Node
	out    []*xmldoc.Node
	keyBuf []byte
}

// execExtent runs a compiled plan under the pinned environment. The
// returned slice aliases the arena and is valid until the next call.
func (e *Evaluator) execExtent(ctx context.Context, p *nodePlan, pinned Env) ([]*xmldoc.Node, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	envCap, outCap, keyCap := cap(e.exe.env), cap(e.exe.out), cap(e.exe.keyBuf)
	e.resetEnv(p)
	e.exe.out = e.exe.out[:0]
	if !p.dead {
		seen := e.beginExtentSeen()
		if err := e.execLevel(ctx, p, 0, pinned, seen); err != nil {
			return nil, err
		}
	}
	if cap(e.exe.env) == envCap && cap(e.exe.out) == outCap && cap(e.exe.keyBuf) == keyCap {
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
	for _, c := range e.levelCands(lv) {
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
	for _, c := range e.levelCands(lv) {
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

// levelCands returns a level's candidate bindings under the current
// slot environment: the compile-time root candidates, or the level's
// path from the binding it starts at.
func (e *Evaluator) levelCands(lv *levelPlan) []*xmldoc.Node {
	if lv.fromSlot < 0 {
		return lv.rooted
	}
	return e.planPathNodes(e.exe.env[lv.fromSlot], lv)
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
	if pp.relaySlot < 0 {
		return e.planAtomsHold(pp)
	}
	var start *xmldoc.Node
	switch {
	case pp.relayFromSlot == -1:
		start = e.Doc.DocNode()
	case pp.relayFromSlot >= 0:
		start = e.exe.env[pp.relayFromSlot]
	}
	if start == nil {
		return false
	}
	cands := e.simplePath(start, pp.relayPath)
	if pp.hasJoin && len(cands) >= relayIndexMinSize && start.Document() == e.Doc {
		return e.planRelayJoin(pp, start)
	}
	for _, w := range cands {
		e.exe.env[pp.relaySlot] = w
		if e.planAtomsHold(pp) {
			return true
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

// planRelayJoin probes the equality-join value index instead of
// scanning the relay set — the compiled form of relayCandidates,
// except candidates are tested against the full conjunction as they
// surface (the predicate is existential, so the first satisfying
// candidate decides; no dedup or re-sort is needed).
func (e *Evaluator) planRelayJoin(pp *predPlan, start *xmldoc.Node) bool {
	idx := e.relayJoinIndex(start, pp.relayPath, pp.joinPath)
	e.relayBuf = e.planOperandValues(e.relayBuf[:0], &pp.joinOther)
	for _, v := range e.relayBuf {
		// Probe under the same keys valueKeys files candidates at: the
		// numeric form (when the value is a number) and the literal form.
		if v.IsNum {
			key := append(e.exe.keyBuf[:0], 'n', 0)
			key = strconv.AppendFloat(key, v.Num, 'g', -1, 64)
			e.exe.keyBuf = key
			if e.planRelayProbe(pp, idx[string(key)]) {
				return true
			}
		}
		key := append(e.exe.keyBuf[:0], 's', 0)
		key = append(key, v.Str...)
		e.exe.keyBuf = key
		if e.planRelayProbe(pp, idx[string(key)]) {
			return true
		}
	}
	return false
}

func (e *Evaluator) planRelayProbe(pp *predPlan, ws []*xmldoc.Node) bool {
	for _, w := range ws {
		e.exe.env[pp.relaySlot] = w
		if e.planAtomsHold(pp) {
			return true
		}
	}
	return false
}

// planAtomHolds evaluates one compiled comparison, reusing the
// evaluator's operand-value scratch.
func (e *Evaluator) planAtomHolds(a *atomPlan) bool {
	e.lbuf = e.planOperandValues(e.lbuf[:0], &a.l)
	lv := e.lbuf
	switch a.op {
	case OpEmpty:
		return len(lv) == 0
	case OpExists:
		return len(lv) > 0
	}
	e.rbuf = e.planOperandValues(e.rbuf[:0], &a.r)
	for _, l := range lv {
		for _, r := range e.rbuf {
			if compareValues(a.op, l, r) {
				return true
			}
		}
	}
	return false
}

// planOperandValues appends o's atomized values to dst — the compiled
// operandValuesInto: constants are pre-atomized, variables are slot
// reads, and the empty target path short-circuits to the binding's own
// value without materializing a one-node slice.
func (e *Evaluator) planOperandValues(dst []Value, o *operandPlan) []Value {
	if o.isConst {
		return append(dst, o.constVals...)
	}
	if o.slot < 0 {
		return dst
	}
	start := e.exe.env[o.slot]
	if start == nil {
		return dst
	}
	base := len(dst)
	if len(o.path) == 0 {
		dst = append(dst, e.nodeValue(start))
	} else {
		for _, t := range e.simplePath(start, o.path) {
			dst = append(dst, e.nodeValue(t))
		}
	}
	if o.mul != 0 && o.mul != 1 {
		scaled := dst[:base]
		for _, v := range dst[base:] {
			if v.IsNum {
				scaled = append(scaled, NumValue(v.Num*o.mul))
			}
		}
		dst = scaled
	}
	return dst
}
