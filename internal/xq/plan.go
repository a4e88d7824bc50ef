package xq

import (
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// Plan/execute split (exec.go holds the executor): instead of
// re-interpreting the XQ-Tree AST on every extent question — walking
// scope chains, re-rendering path expressions, re-resolving variable
// references — each query node's binding chain is lowered once into a
// flat nodePlan whose operands address an integer-slot environment.
// Compilation resolves everything that depends only on the (immutable)
// tree shape and document:
//
//   - variable references become slot numbers (nearest-binding
//     resolution, identical to the interpreter's scope-chain lookup);
//   - binding path REs become DFAs plus a pre-rendered cache key, and
//     document-rooted paths are evaluated outright into the plan;
//   - constants are atomized (and scaled, when the operand carries a
//     multiplier) into ready Value slices;
//   - operand and relay paths become label-symbol steps the executor
//     walks over the index columns, with no per-evaluator memo;
//   - joins become probes (probePlan): an equality, relay or ordering
//     join between the candidates a loop enumerates and a value fixed
//     while it runs turns the loop into a lookup in a table over those
//     candidates (a class table, a relay semijoin, a sorted range).
//
// Plans read only immutable inputs afterwards, so a compiled TreePlan
// is shareable across evaluators and goroutines, and the artifact
// store caches one per bundle. Because predicates and paths are baked
// in at compile time, plans share the extent memo's invalidation
// contract: InvalidateExtents drops them.

// planCacheMax bounds the per-evaluator plan cache. Plans are keyed by
// query-node pointer; the engine compiles fresh hypothesis trees
// constantly, so the cache resets (cheaply — plans are small) rather
// than growing without bound. A var, not a const, so the eviction test
// can overflow a small cache without compiling 4096 plans.
var planCacheMax = 1 << 12

// Slot conventions: levels of the binding chain occupy slots
// 0..len(levels)-1; the relay variable of a `some … satisfies`
// predicate is bound at slot len(levels) (one shared slot suffices —
// predicates cannot nest). slotUnresolved marks a variable reference
// with no visible binding; the interpreter treats those as empty
// sequences, and the executor does the same.
const slotUnresolved = -2

// nodePlan is the compiled extent program of one query node: its
// binding chain as a nest of candidate loops, innermost emitting the
// plan's own variable.
type nodePlan struct {
	levels []levelPlan
	// relaySlot is the environment slot relay variables bind at
	// (== len(levels)).
	relaySlot int
	// dead marks a chain with an unresolvable From variable: the
	// binding enumeration can never produce a row, so the extent is
	// empty regardless of the document.
	dead bool
}

// levelPlan is one level of the binding chain: where its candidates
// come from and which predicates filter them.
type levelPlan struct {
	varName string
	// fromSlot is the slot the binding path starts from, or -1 for a
	// document-rooted path (whose candidates are resolved at compile
	// time into rooted).
	fromSlot int
	rooted   []*xmldoc.Node
	// probe, when set, admits only the rooted candidates that can pass
	// an equality join to a fixed value (see probePlan).
	probe *probePlan
	// expr/exprStr/dfa drive relative path evaluation: exprStr is the
	// rendered form pre-computed so the executor probes the evaluator's
	// path cache without re-rendering, dfa the compiled automaton for
	// misses.
	expr    pathre.Expr
	exprStr string
	dfa     *pathre.DFA
	preds   []predPlan
}

// predPlan is one compiled where-predicate.
type predPlan struct {
	negated bool
	// relaySlot >= 0 marks a relay (`some $w in …`) predicate and names
	// the slot $w binds at; -1 means a plain conjunction.
	relaySlot int
	// relayFromSlot anchors the relay path: -1 the document node, >= 0
	// a chain slot, slotUnresolved an unbound From (body is false, as
	// in the interpreter).
	relayFromSlot int
	// relaySteps is the relay path; relayCands, for a document-rooted
	// relay, the relay set itself, resolved at compile time.
	relaySteps []stepPlan
	relayCands []*xmldoc.Node
	atoms      []atomPlan
	// probe, when set, enumerates only the relay candidates that can
	// pass one equality atom (see probePlan).
	probe *probePlan
}

// atomPlan is one compiled comparison. byClass marks an OpEq between
// two unscaled variable operands, which the executor decides on value
// classes alone.
type atomPlan struct {
	op      CmpOp
	byClass bool
	l, r    operandPlan
}

// operandPlan is a compiled comparison operand. Constants carry their
// atomized (and pre-scaled) values; variable operands carry the
// resolved slot, target path, and multiplier.
type operandPlan struct {
	isConst bool
	// constVals holds zero or one values: a non-numeric constant under
	// a multiplier atomizes to the empty sequence, exactly like the
	// interpreter's IsNum filter.
	constVals []Value
	slot      int
	steps     []stepPlan
	mul       float64
}

// scaled reports whether the operand carries a multiplier.
func (o *operandPlan) scaled() bool { return o.mul != 0 && o.mul != 1 }

// stepPlan is one compiled simple-path step: the label symbol it
// matches (NoSym when the document has no such label, which matches
// nothing), its position selector, and whether it selects an
// attribute.
type stepPlan struct {
	sym  int32
	pos  int32
	attr bool
}

// probeKind names how a probe selects candidates. Every kind admits a
// superset of the candidates that can pass what it was compiled from,
// in candidate order, and the full conjunction still runs on each
// candidate it admits, so a loose probe (NaN, values that compare as
// text) costs work but never changes a result. levelProbe fixes the
// precedence among kinds.
type probeKind uint8

const (
	// probeEq looks the fixed side's value classes up in a
	// class→candidates table (classTable).
	probeEq probeKind = iota
	// probeRange binary-searches the fixed side's bound in the
	// candidates sorted by numeric value (rangeTable).
	probeRange
	// probeRelay is a semijoin through a document-rooted relay: the
	// relay nodes that can pass the relay's fixed atom (hop), then the
	// level candidates their link values name (tab).
	probeRelay
)

// probePlan is a join compiled into a lookup. Its atom compares enum,
// an operand on the candidate a loop enumerates, with other, a value
// fixed while the loop runs: a constant, or a binding in an earlier
// slot (see probeFor). The loop's candidates are fixed per plan, so
// the first run builds a table over them once, and every run after
// admits only the candidates the table selects for other's values.
// Exactly one of tab and rng is set; a relay-level probe also sets hop
// or sel (see kind).
//
// A relay-level probe reads its atoms differently: enum is the level's
// side of the relay's link atom and other the relay's side, evaluated
// on each relay node hop admits (every node of the relay set when hop
// is nil).
type probePlan struct {
	enum, other operandPlan
	// tab serves equality probes and a relay-level probe's second hop,
	// rng range probes.
	tab *classTable
	rng *rangeTable
	// hop is a relay-level probe's probe over the relay set by its
	// fixed atom; without one, sel is its selection, the same on every
	// run.
	hop *probePlan
	sel *relaySel
}

// kind reports which of the three kinds pr is.
func (pr *probePlan) kind() probeKind {
	switch {
	case pr.rng != nil:
		return probeRange
	case pr.hop != nil || pr.sel != nil:
		return probeRelay
	}
	return probeEq
}

// cands returns the candidates pr's positions index: the level's or
// relay set's, which its table was built over.
func (pr *probePlan) cands() []*xmldoc.Node {
	if pr.rng != nil {
		return pr.rng.cands
	}
	return pr.tab.cands
}

// probeTable is a table a probe reads: built on the probe's first run,
// under its own once, and read-only afterwards.
//
// A table depends only on its atom, its candidates and the document,
// so every plan compiled from one predicate shares one
// (compileArena.probes, keyed by probeKey), and plans are shared
// through TreePlan, which charges each table once (bytes).
type probeTable interface {
	// bytes is what the built table keeps alive, estimated before the
	// build from the candidate count (one value per candidate).
	bytes() int
}

// classTable groups a probe's candidates by the value classes of its
// enum operand: the group of class keys[k] is pos[off[k]:off[k+1]],
// ascending positions in cands, each candidate once. constCls holds the
// classes of a constant other operand.
type classTable struct {
	cands          []*xmldoc.Node
	once           sync.Once
	keys, off, pos []int32
	constCls       []int32
}

// group returns the positions of the candidates holding class cl.
func (t *classTable) group(cl int32) []int32 {
	k, ok := slices.BinarySearch(t.keys, cl)
	if !ok {
		return nil
	}
	return t.pos[t.off[k]:t.off[k+1]]
}

func (t *classTable) bytes() int {
	return int(unsafe.Sizeof(classTable{})) + 3*4*len(t.cands)
}

// rangeTable orders a range probe's candidates by the numeric values
// of its enum operand, multiplier applied: candidate at[k] holds value
// num[k], num ascending, NaN left out (it passes no numeric
// comparison). loose lists, ascending, the candidates holding an
// unscaled non-numeric value: compareValues compares those as text,
// so they pass or fail whatever the bound, and every run admits them.
// op is the atom's operator, turned so that enum is on its left, and
// fix summarizes a constant other operand.
type rangeTable struct {
	cands     []*xmldoc.Node
	op        CmpOp
	once      sync.Once
	num       []float64
	at, loose []int32
	fix       rangeBound
}

func (t *rangeTable) bytes() int {
	return int(unsafe.Sizeof(rangeTable{})) + (8+4)*len(t.cands)
}

// rangeBound summarizes a range probe's fixed side: the least and
// greatest of its n non-NaN numbers, and whether it holds a value that
// is not a number (against which every candidate compares as text).
type rangeBound struct {
	lo, hi float64
	n      int
	text   bool
}

// relaySel is a relay-level probe's selection when its relay has no
// fixed atom: the ascending positions of the n level candidates that
// some node of the relay set links to.
type relaySel struct {
	relay []*xmldoc.Node
	n     int
	once  sync.Once
	pos   []int32
}

func (s *relaySel) bytes() int { return int(unsafe.Sizeof(relaySel{})) + 4*s.n }

// compileExtent lowers n's extent computation into a nodePlan, or nil
// when the node cannot be compiled (a chain node without a binding
// path); callers fall back to the interpreter on nil. A non-nil lift
// names a node of n's binding chain whose level the plan does not
// filter: a CondExtent compiles that Where clause into condition bits.
func (e *Evaluator) compileExtent(n, lift *Node) *nodePlan {
	chain := n.BindingChain()
	if len(chain) == 0 {
		return nil
	}
	// The executor walks operand paths over the index columns.
	e.Index()
	p := &nodePlan{levels: e.carveLevels(len(chain)), relaySlot: len(chain)}
	slotOf := func(name string, upto int) int { return chainSlot(chain, name, upto) }
	for i, cn := range chain {
		if cn.Path == nil {
			return nil
		}
		lv := &p.levels[i]
		lv.varName = cn.Var
		if cn.From == "" {
			lv.fromSlot = -1
			lv.rooted = e.PathNodes(nil, cn.Path)
		} else {
			from := slotOf(cn.From, i-1)
			if from == slotUnresolved {
				// No visible binding for From: the interpreter's lookup
				// yields nil and the level binds nothing, ever.
				p.dead = true
				return p
			}
			lv.fromSlot = from
			lv.expr = cn.Path
			lv.exprStr, lv.dfa = e.dfaKeyed(cn.Path)
		}
		if cn == lift {
			continue
		}
		lv.preds = e.carvePreds(len(cn.Where))
		for k, pr := range cn.Where {
			lv.preds[k] = e.compilePred(pr, i, p.relaySlot, slotOf)
		}
		if lv.fromSlot < 0 {
			lv.probe = e.levelProbe(lv, cn.Where, i)
		}
	}
	return p
}

// chainSlot resolves a variable reference visible at level upto of a
// binding chain: the nearest (deepest) binding wins, matching
// scope.lookup.
func chainSlot(chain []*Node, name string, upto int) int {
	for j := upto; j >= 0; j-- {
		if chain[j].Var == name {
			return j
		}
	}
	return slotUnresolved
}

// levelProbe picks the probe of level i (compiled from preds), whose
// root candidates run once per binding of the levels above it. The
// precedence is fixed, and within each kind predicates and atoms go in
// order:
//  1. an equality atom of a plain, unnegated predicate (probeEq): a
//     class lookup admits only candidates with an equal value;
//  2. an unnegated relay over a document-rooted set that links to the
//     level (relayProbe): at most the candidates the relay nodes
//     passing its fixed atom name;
//  3. an ordering atom of a plain, unnegated predicate (probeRange): a
//     range admits every candidate on one side of the bound.
func (e *Evaluator) levelProbe(lv *levelPlan, preds []*Pred, i int) *probePlan {
	plain := func(ordering bool) *probePlan {
		for k := range lv.preds {
			if pp := &lv.preds[k]; !pp.negated && pp.relaySlot < 0 {
				if pr := e.atomProbe(pp, preds[k], ordering, -1, i, i, lv.rooted); pr != nil {
					return pr
				}
			}
		}
		return nil
	}
	if pr := plain(false); pr != nil {
		return pr
	}
	for k := range lv.preds {
		if pr := e.relayProbe(&lv.preds[k], preds[k], i, lv.rooted); pr != nil {
			return pr
		}
	}
	return plain(true)
}

// atomProbe returns a probe over cands, the candidates of slot enum,
// for the first atom of pp other than atom skip that probeFor accepts
// with bound fixed, among its ordering atoms when ordering is set and
// its equality atoms otherwise.
func (e *Evaluator) atomProbe(pp *predPlan, pred *Pred, ordering bool, skip, enum, fixed int, cands []*xmldoc.Node) *probePlan {
	for j := range pp.atoms {
		if j == skip || (pp.atoms[j].op == OpEq) == ordering {
			continue
		}
		if pr := e.probeFor(&pp.atoms[j], enum, fixed, probeKey{pred: pred, atom: j}, cands); pr != nil {
			return pr
		}
	}
	return nil
}

// atomsProbe is atomProbe over pp's equality atoms, then over its
// ordering atoms.
func (e *Evaluator) atomsProbe(pp *predPlan, pred *Pred, skip, enum, fixed int, cands []*xmldoc.Node) *probePlan {
	if pr := e.atomProbe(pp, pred, false, skip, enum, fixed, cands); pr != nil {
		return pr
	}
	return e.atomProbe(pp, pred, true, skip, enum, fixed, cands)
}

// probeKey names what a probe table depends on: atom j of pred, the
// side of it the loop enumerates, the table's kind, and that loop's
// candidates. Two trees may hold one *Pred under levels with different
// candidates.
type probeKey struct {
	pred  *Pred
	atom  int
	right bool
	kind  probeKind
	cands *xmldoc.Node
	n     int
}

// withCands completes k with the candidate list a table is built over.
func (k probeKey) withCands(cands []*xmldoc.Node) probeKey {
	if len(cands) > 0 {
		k.cands, k.n = cands[0], len(cands)
	}
	return k
}

// memoTable returns the compile memo's table under key, made by mk on
// a miss, so the plans of every node below the atom's level share one.
func memoTable[T probeTable](e *Evaluator, key probeKey, mk func() T) T {
	if t, ok := e.comp.probes[key].(T); ok {
		return t
	}
	t := mk()
	if e.comp.probes == nil {
		e.comp.probes = map[probeKey]probeTable{}
	}
	e.comp.probes[key] = t
	return t
}

// probeFor compiles atom a into a probe over cands, the candidates of
// slot enum, when a compares an operand on slot enum with a value
// fixed before the loop runs: a constant, or a binding in a slot below
// fixed (enum itself, except for a relay-level probe's first hop). An
// OpEq atom whose enum side is unscaled becomes a class probe, an
// ordering atom a range probe, whatever its multipliers. Level and
// relay probes follow this one rule; a relay's slot comes after every
// chain slot.
func (e *Evaluator) probeFor(a *atomPlan, enum, fixed int, key probeKey, cands []*xmldoc.Node) *probePlan {
	kind := probeEq
	switch a.op {
	case OpEq:
	case OpLt, OpLe, OpGt, OpGe:
		kind = probeRange
	default:
		return nil
	}
	onEnum := func(o *operandPlan) bool { return onSlot(o, enum, kind == probeRange) }
	isFixed := func(o *operandPlan) bool { return o.isConst || (o.slot >= 0 && o.slot < fixed) }
	var pr *probePlan
	op := a.op
	switch {
	case onEnum(&a.l) && isFixed(&a.r):
		pr = &probePlan{enum: a.l, other: a.r}
	case onEnum(&a.r) && isFixed(&a.l):
		pr = &probePlan{enum: a.r, other: a.l}
		op, key.right = flipOp(op), true
	default:
		return nil
	}
	key.kind = kind
	key = key.withCands(cands)
	if kind == probeEq {
		pr.tab = memoTable(e, key, func() *classTable { return &classTable{cands: cands} })
	} else {
		pr.rng = memoTable(e, key, func() *rangeTable { return &rangeTable{cands: cands, op: op} })
	}
	return pr
}

// onSlot reports whether o is a variable operand on slot, and unscaled
// unless scaledOK.
func onSlot(o *operandPlan, slot int, scaledOK bool) bool {
	return !o.isConst && o.slot == slot && (scaledOK || !o.scaled())
}

// flipOp returns the operator that holds for (r, l) iff op holds for
// (l, r).
func flipOp(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// relayProbe compiles pp, a predicate of level i over cands, into a
// relay-level probe (a semijoin) when it is an unnegated relay over a
// document-rooted set with an OpEq atom, the link, between an operand
// on the relay variable and an unscaled one on level i. Its first hop
// probes the relay set by another of the relay's atoms that joins it
// to a value fixed before level i (probeFor with the level as bound,
// equality atoms first); the second looks the link values of the relay
// nodes the first admits up in a class table over the level's
// candidates. Any candidate the relay holds for is linked to a relay
// node that passes every atom, the first hop's included, so it is
// admitted.
func (e *Evaluator) relayProbe(pp *predPlan, pred *Pred, i int, cands []*xmldoc.Node) *probePlan {
	if pp.negated || pp.relaySlot < 0 || pp.relayFromSlot != -1 {
		return nil
	}
	for j := range pp.atoms {
		a := &pp.atoms[j]
		if a.op != OpEq {
			continue
		}
		var pr *probePlan
		key := probeKey{pred: pred, atom: j}
		switch {
		case onSlot(&a.l, i, false) && onSlot(&a.r, pp.relaySlot, true):
			pr = &probePlan{enum: a.l, other: a.r}
		case onSlot(&a.r, i, false) && onSlot(&a.l, pp.relaySlot, true):
			pr = &probePlan{enum: a.r, other: a.l}
			key.right = true
		default:
			continue
		}
		key = key.withCands(cands)
		pr.tab = memoTable(e, key, func() *classTable { return &classTable{cands: cands} })
		if pr.hop = e.atomsProbe(pp, pred, j, pp.relaySlot, i, pp.relayCands); pr.hop == nil {
			key.kind = probeRelay
			relay := pp.relayCands
			pr.sel = memoTable(e, key, func() *relaySel { return &relaySel{relay: relay, n: len(cands)} })
		}
		return pr
	}
	return nil
}

// compilePred lowers one predicate evaluated at chain level `level`.
func (e *Evaluator) compilePred(pr *Pred, level, relaySlot int, slotOf func(string, int) int) predPlan {
	pp := predPlan{negated: pr.Negated, relaySlot: -1, relayFromSlot: slotUnresolved}
	// resolve maps an atom operand's variable: inside a relay predicate
	// the relay variable shadows chain bindings of the same name
	// (nearest-frame-wins, as the interpreter binds it innermost).
	resolve := func(name string) int {
		if pr.HasRelay() && name == pr.RelayVar {
			return relaySlot
		}
		return slotOf(name, level)
	}
	if pr.HasRelay() {
		pp.relaySlot = relaySlot
		if pr.RelayFrom == "" {
			pp.relayFromSlot = -1
		} else {
			// RelayFrom resolves before the relay variable is bound, so
			// only chain bindings are visible here.
			pp.relayFromSlot = slotOf(pr.RelayFrom, level)
		}
		pp.relaySteps = e.compileSteps(pr.RelayPath)
	}
	pp.atoms = e.carveAtoms(len(pr.Atoms))
	for i, a := range pr.Atoms {
		ap := atomPlan{op: a.Op, l: e.compileOperand(a.L, resolve), r: e.compileOperand(a.R, resolve)}
		ap.byClass = ap.op == OpEq && !ap.l.isConst && !ap.r.isConst && !ap.l.scaled() && !ap.r.scaled()
		pp.atoms[i] = ap
	}
	if pp.relayFromSlot == -1 {
		// A document-rooted relay set is the same on every run: resolve it
		// now, and index it when an atom joins it to a fixed value.
		pp.relayCands = e.rootedRelay(pr, pp.relaySteps)
		pp.probe = e.atomsProbe(&pp, pr, -1, relaySlot, relaySlot, pp.relayCands)
	}
	return pp
}

// rootedRelay returns the relay set of pr, a predicate whose relay is
// document-rooted, resolved once per compile-arena lifetime: the
// predicate's level recurs in the plan of every node below it.
func (e *Evaluator) rootedRelay(pr *Pred, steps []stepPlan) []*xmldoc.Node {
	if cands, ok := e.comp.relays[pr]; ok {
		return cands
	}
	ids := e.walkSteps(e.exe.ids[:0], int32(e.Doc.DocNode().ID), steps)
	e.exe.ids = ids
	cands := make([]*xmldoc.Node, len(ids))
	for k, id := range ids {
		cands[k] = e.Doc.NodeByID(int(id))
	}
	if e.comp.relays == nil {
		e.comp.relays = map[*Pred][]*xmldoc.Node{}
	}
	e.comp.relays[pr] = cands
	return cands
}

// compileOperand lowers one operand, atomizing constants eagerly.
func (e *Evaluator) compileOperand(o Operand, resolve func(string) int) operandPlan {
	if o.IsConst {
		v := StrValue(o.Const)
		if o.Mul != 0 && o.Mul != 1 {
			if !v.IsNum {
				return operandPlan{isConst: true}
			}
			v = NumValue(v.Num * o.Mul)
		}
		return operandPlan{isConst: true, constVals: e.carveVal(v)}
	}
	return operandPlan{slot: resolve(o.Var), steps: e.compileSteps(o.Path), mul: o.Mul}
}

// compileSteps resolves a simple path's labels to document symbols.
func (e *Evaluator) compileSteps(p SimplePath) []stepPlan {
	steps := e.carveSteps(len(p))
	for i, st := range p {
		steps[i] = e.stepOf(st)
	}
	return steps
}

// stepOf resolves one step's label to its document symbol.
func (e *Evaluator) stepOf(st Step) stepPlan {
	sym, ok := e.Doc.SymOf(st.Name)
	if !ok {
		sym = xmldoc.NoSym
	}
	return stepPlan{sym: sym, pos: int32(st.Pos), attr: strings.HasPrefix(st.Name, "@")}
}

// planFor returns the compiled plan for n, consulting the shared
// TreePlan first, then the evaluator-local cache, compiling on miss.
// nil means n is uncompilable and the caller must interpret.
func (e *Evaluator) planFor(n *Node) *nodePlan {
	if e.sharedPlan != nil {
		if p, ok := e.sharedPlan.nodes[n]; ok {
			e.stats.Plan.Hits++
			return p
		}
	}
	if p, ok := e.plans[n]; ok {
		if p != nil {
			e.stats.Plan.Hits++
		}
		return p
	}
	e.stats.Plan.Misses++
	// Evict before compiling, not after: the reset drops every cached
	// plan, which is exactly when the compile arena may reclaim its
	// chunks — resetting after compileExtent would clobber the plan just
	// carved from them.
	if len(e.plans) >= planCacheMax {
		e.plans = nil
		e.comp.reset()
	}
	p := e.compileExtent(n, nil)
	if e.plans == nil {
		e.plans = map[*Node]*nodePlan{}
	}
	e.plans[n] = p
	return p
}

// TreePlan is the compiled plan set for one (document, query tree)
// pair: every bound variable's nodePlan, keyed by query node. It is
// immutable after NewTreePlan returns and reads only immutable state
// during execution, so any number of evaluators over the same document
// may adopt one concurrently — the artifact store caches a TreePlan
// per bundle on exactly that contract. The tree must not be mutated
// while a TreePlan for it is in use (the same rule the extent memo
// already imposes; see InvalidateExtents).
type TreePlan struct {
	doc   *xmldoc.Document
	nodes map[*Node]*nodePlan
	bytes int
}

// NewTreePlan eagerly compiles every bound variable of t against the
// indexed document.
func NewTreePlan(ix *Index, t *Tree) *TreePlan {
	tp := &TreePlan{doc: ix.Doc(), nodes: map[*Node]*nodePlan{}}
	if t == nil {
		return tp
	}
	ev := NewEvaluatorWithIndex(ix)
	for _, n := range t.Nodes() {
		if n.Var == "" {
			continue
		}
		if p := ev.compileExtent(n, nil); p != nil {
			tp.nodes[n] = p
		}
	}
	tp.bytes = planSetBytes(tp.nodes, ev.comp.bytes)
	return tp
}

// NumPlans returns the number of compiled query nodes.
func (tp *TreePlan) NumPlans() int { return len(tp.nodes) }

// ApproxBytes estimates the memory the plan set keeps alive, for the
// artifact store's byte budget.
func (tp *TreePlan) ApproxBytes() int { return 256 + tp.bytes }

// planSetBytes is what a set of plans keeps alive: the compile-arena
// chunks they alias (arenaBytes), whole, since any carve pins its
// chunk; each nodePlan and its map entry; per level the rendered
// binding expression; and, counted once however many plans share
// them, the resolved root and relay candidates (shared through the
// compiling evaluator's path cache and compile memo) and each probe's
// tables, charged up front although its first run builds them.
func planSetBytes(plans map[*Node]*nodePlan, arenaBytes int) int {
	b := arenaBytes
	nodes := map[**xmldoc.Node]bool{}
	addNodes := func(s []*xmldoc.Node) {
		if cap(s) > 0 && !nodes[&s[:1][0]] {
			nodes[&s[:1][0]] = true
			b += cap(s) * int(unsafe.Sizeof(s[0]))
		}
	}
	tables := map[probeTable]bool{}
	addTable := func(t probeTable) {
		if !tables[t] {
			tables[t] = true
			b += t.bytes()
		}
	}
	var addProbe func(pr *probePlan)
	addProbe = func(pr *probePlan) {
		if pr == nil {
			return
		}
		b += int(unsafe.Sizeof(*pr))
		if pr.tab != nil {
			addTable(pr.tab)
		}
		if pr.rng != nil {
			addTable(pr.rng)
		}
		if pr.sel != nil {
			addTable(pr.sel)
		}
		addProbe(pr.hop)
	}
	for _, p := range plans {
		b += int(unsafe.Sizeof(nodePlan{})) + 32
		for i := range p.levels {
			lv := &p.levels[i]
			b += len(lv.exprStr)
			addNodes(lv.rooted)
			addProbe(lv.probe)
			for k := range lv.preds {
				addNodes(lv.preds[k].relayCands)
				addProbe(lv.preds[k].probe)
			}
		}
	}
	return b
}

// AdoptPlan attaches a shared compiled-plan set. Plans compiled for a
// different document are ignored (the bundle and session document must
// be the same object, as with WithSharedIndex).
func (e *Evaluator) AdoptPlan(p *TreePlan) {
	if p != nil && p.doc == e.Doc {
		e.sharedPlan = p
	}
}

// SetPlanCompilation toggles the compiled plan/execute path, on by
// default. Off, extents still memoize (the acceleration layer) but are
// computed by the interpreted enumeration — the middle leg of the
// three-way property tests.
func (e *Evaluator) SetPlanCompilation(on bool) {
	e.compile = on
	if !on {
		e.plans = nil
		e.comp.reset()
	}
}
