package xq

import (
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
//   - the equality-join prefilter of the relay path (accel.go's
//     relayCandidates) is recognized once instead of per evaluation.
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
	relayPath     SimplePath
	atoms         []atomPlan
	// hasJoin marks an equality-join atom usable as the relay
	// prefilter: joinPath is the relay-side simple path, joinOther the
	// outer operand — the compiled form of accel.go's splitJoinAtom,
	// recognized once here instead of per evaluation.
	hasJoin   bool
	joinPath  SimplePath
	joinOther operandPlan
}

// atomPlan is one compiled comparison.
type atomPlan struct {
	op   CmpOp
	l, r operandPlan
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
	path      SimplePath
	mul       float64
}

// compileExtent lowers n's extent computation into a nodePlan, or nil
// when the node cannot be compiled (a chain node without a binding
// path); callers fall back to the interpreter on nil.
func (e *Evaluator) compileExtent(n *Node) *nodePlan {
	chain := n.BindingChain()
	if len(chain) == 0 {
		return nil
	}
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
	}
	return p
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
		pp.relayPath = pr.RelayPath
		for _, a := range pr.Atoms {
			if jp, other, ok := splitJoinAtom(a, pr.RelayVar); ok {
				pp.hasJoin = true
				pp.joinPath = jp
				pp.joinOther = e.compileOperand(other, resolve)
				break
			}
		}
	}
	pp.atoms = e.carveAtoms(len(pr.Atoms))
	for i, a := range pr.Atoms {
		pp.atoms[i] = atomPlan{op: a.Op, l: e.compileOperand(a.L, resolve), r: e.compileOperand(a.R, resolve)}
	}
	return pp
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
	return operandPlan{slot: resolve(o.Var), path: o.Path, mul: o.Mul}
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
// chunk; each nodePlan and its map entry; and per level the rendered
// binding expression and the resolved root candidates — counted once
// per slice, as plans sharing an ancestor share its candidates through
// the compiling evaluator's path cache.
func planSetBytes(plans map[*Node]*nodePlan, arenaBytes int) int {
	b := arenaBytes
	rooted := map[**xmldoc.Node]bool{}
	for _, p := range plans {
		b += int(unsafe.Sizeof(nodePlan{})) + 32
		for i := range p.levels {
			lv := &p.levels[i]
			b += len(lv.exprStr)
			if cap(lv.rooted) > 0 && !rooted[&lv.rooted[:1][0]] {
				rooted[&lv.rooted[:1][0]] = true
				b += cap(lv.rooted) * int(unsafe.Sizeof(lv.rooted[0]))
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
