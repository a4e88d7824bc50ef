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
//   - equality joins become probes (probePlan): an OpEq atom between
//     the candidate a loop enumerates and a value fixed while it runs
//     turns the loop into a lookup in a class→candidates table.
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

// probePlan is an equality join compiled into a class lookup. Its atom
// compares enum, an unscaled operand on the candidate a loop
// enumerates, with other, a value fixed while the loop runs: a
// constant, or a binding in an earlier slot (see probeFor). The
// loop's candidates are fixed per plan, so the first run builds a
// class→candidates table over them once (tab), and every run after
// enumerates only the candidates whose enum values share a class with
// other's — the atom's "some pair is equal" semantics as an
// intersection of class sets. The full conjunction still runs on every
// candidate the table admits.
type probePlan struct {
	enum, other operandPlan
	tab         *classTable
}

// classTable groups a probe's candidates by the value classes of its
// enum operand: the group of class keys[k] is pos[off[k]:off[k+1]],
// ascending positions in cands, each candidate once. constCls holds the
// classes of a constant other operand.
//
// A table depends only on its atom and the document, so every plan
// compiled from one predicate shares one (compileArena.probes), and
// plans are shared through TreePlan: it is built under once, and is
// read-only afterwards.
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

// bytes is what a built table keeps alive, estimated before the build
// from the candidate count (one class per candidate).
func (t *classTable) bytes() int {
	return int(unsafe.Sizeof(classTable{})) + 3*4*len(t.cands)
}

// compileExtent lowers n's extent computation into a nodePlan, or nil
// when the node cannot be compiled (a chain node without a binding
// path); callers fall back to the interpreter on nil.
func (e *Evaluator) compileExtent(n *Node) *nodePlan {
	chain := n.BindingChain()
	if len(chain) == 0 {
		return nil
	}
	// The executor walks operand paths over the index columns.
	e.Index()
	p := &nodePlan{levels: e.carveLevels(len(chain)), relaySlot: len(chain)}
	// slotOf resolves a variable reference visible at chain level upto:
	// nearest (deepest) binding wins, matching scope.lookup.
	slotOf := func(name string, upto int) int {
		for j := upto; j >= 0; j-- {
			if chain[j].Var == name {
				return j
			}
		}
		return slotUnresolved
	}
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

// levelProbe picks the first OpEq atom of a plain, unnegated predicate
// of level i (compiled from preds) that can probe the level's root
// candidates, which run once per binding of the levels above it.
func (e *Evaluator) levelProbe(lv *levelPlan, preds []*Pred, i int) *probePlan {
	for k := range lv.preds {
		pp := &lv.preds[k]
		if pp.negated || pp.relaySlot >= 0 {
			continue
		}
		for j := range pp.atoms {
			if pr := e.probeFor(&pp.atoms[j], i, probeKey{pred: preds[k], atom: j}, lv.rooted); pr != nil {
				return pr
			}
		}
	}
	return nil
}

// probeKey names what a class table depends on: atom j of pred, the
// side of it the loop enumerates, and that loop's candidates. Two
// trees may hold one *Pred under levels with different candidates.
type probeKey struct {
	pred  *Pred
	atom  int
	right bool
	cands *xmldoc.Node
	n     int
}

// probeFor compiles atom a into a probe over cands, the candidates of
// slot enum, when a is an OpEq between an unscaled operand on slot enum
// and a value fixed while that slot's loop runs: a constant, or a
// binding in an earlier slot. Both probe kinds follow this one rule; a
// relay's slot comes after every chain slot. The table comes from the
// compile arena's memo, so the plans of every node below the atom's
// level share one.
func (e *Evaluator) probeFor(a *atomPlan, enum int, key probeKey, cands []*xmldoc.Node) *probePlan {
	if a.op != OpEq {
		return nil
	}
	onEnum := func(o *operandPlan) bool { return !o.isConst && o.slot == enum && !o.scaled() }
	fixed := func(o *operandPlan) bool { return o.isConst || (o.slot >= 0 && o.slot < enum) }
	var on, other *operandPlan
	switch {
	case onEnum(&a.l) && fixed(&a.r):
		on, other = &a.l, &a.r
	case onEnum(&a.r) && fixed(&a.l):
		on, other = &a.r, &a.l
	default:
		return nil
	}
	key.right = on == &a.r
	if len(cands) > 0 {
		key.cands, key.n = cands[0], len(cands)
	}
	tab := e.comp.probes[key]
	if tab == nil {
		tab = &classTable{cands: cands}
		if e.comp.probes == nil {
			e.comp.probes = map[probeKey]*classTable{}
		}
		e.comp.probes[key] = tab
	}
	return &probePlan{enum: *on, other: *other, tab: tab}
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
		for j := range pp.atoms {
			if pp.probe = e.probeFor(&pp.atoms[j], relaySlot, probeKey{pred: pr, atom: j}, pp.relayCands); pp.probe != nil {
				break
			}
		}
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
	p := e.compileExtent(n)
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
		if p := ev.compileExtent(n); p != nil {
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
// class table, charged up front although its first run builds it.
func planSetBytes(plans map[*Node]*nodePlan, arenaBytes int) int {
	b := arenaBytes
	nodes := map[**xmldoc.Node]bool{}
	addNodes := func(s []*xmldoc.Node) {
		if cap(s) > 0 && !nodes[&s[:1][0]] {
			nodes[&s[:1][0]] = true
			b += cap(s) * int(unsafe.Sizeof(s[0]))
		}
	}
	tables := map[*classTable]bool{}
	addProbe := func(pr *probePlan) {
		if pr == nil {
			return
		}
		b += int(unsafe.Sizeof(*pr))
		if !tables[pr.tab] {
			tables[pr.tab] = true
			b += pr.tab.bytes()
		}
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
