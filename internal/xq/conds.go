package xq

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/xmldoc"
)

// Condition checks (DESIGN.md "Condition checks"). The learner asks two
// questions of predicates outside any extent: whether a conjunction
// holds for one candidate binding (the P-Learner's hypothesis extent
// and its membership representatives), and which predicates of a level
// each binding of an extent passes (the C-Learner's minimization).
// Both run on the executor's compiled predicates: compilePred lowers
// each predicate once, with the probe rule and the compile arena's
// shared class tables and relay sets, and planPredHolds runs it over
// an integer-slot environment.

// ErrNotOnChain reports that CompileCondExtent was given a lifted node
// outside the extent node's binding chain, or a chain it cannot
// compile (a level without a binding path).
var ErrNotOnChain = errors.New("xq: node is not on a compiled binding chain")

// Conds is a conjunction of predicates compiled over a fixed list of
// named variables: vars[i] binds slot i, a later duplicate name
// shadowing an earlier one, and a relay variable binds the slot after
// the last. The compiled form aliases the compiling evaluator's compile
// arena, so CondsHold recompiles it after that arena resets
// (InvalidateExtents, plan-cache overflow) or under another evaluator.
type Conds struct {
	ev    *Evaluator
	gen   uint64
	vars  []string
	src   []*Pred
	plans []predPlan
}

// CompileConds compiles the conjunction of preds over vars. The
// caller must not mutate either slice while the Conds is in use.
func (e *Evaluator) CompileConds(vars []string, preds []*Pred) *Conds {
	c := &Conds{vars: vars, src: preds}
	e.compileConds(c)
	return c
}

// compileConds (re)compiles c's predicates in e's compile arena.
func (e *Evaluator) compileConds(c *Conds) {
	e.Index()
	c.ev, c.gen = e, e.comp.gen
	relaySlot := len(c.vars)
	slotOf := func(name string, _ int) int {
		for j := len(c.vars) - 1; j >= 0; j-- {
			if c.vars[j] == name {
				return j
			}
		}
		return slotUnresolved
	}
	c.plans = make([]predPlan, len(c.src))
	for k, pr := range c.src {
		c.plans[k] = e.compilePred(pr, relaySlot-1, relaySlot, slotOf)
	}
}

// CondsHold reports whether every predicate of c holds with vars[i]
// bound to vals[i] (nil leaves it unbound). It runs the compiled
// predicates when acceleration and plan compilation are on and every
// value is a node of e's document, and the interpreter (naive or
// memoized, as the toggles say) otherwise; the legs agree exactly.
func (e *Evaluator) CondsHold(c *Conds, vals []*xmldoc.Node) bool {
	if !e.accel || !e.compile || !e.ownsAll(vals) {
		var sc *scope
		for i, v := range c.vars {
			sc = sc.with(v, vals[i])
		}
		for _, p := range c.src {
			if !e.predHolds(p, sc) {
				return false
			}
		}
		return true
	}
	if c.ev != e || c.gen != e.comp.gen {
		e.compileConds(c)
	}
	need := len(c.vars) + 1
	if cap(e.exe.env) < need {
		e.exe.env = make([]*xmldoc.Node, need)
	}
	env := e.exe.env[:need]
	copy(env, vals)
	env[len(c.vars)] = nil
	e.exe.env = env
	for k := range c.plans {
		if !e.planPredHolds(&c.plans[k]) {
			return false
		}
	}
	return true
}

// ownsAll reports whether every non-nil node is one of e's document:
// the compiled predicates address nodes by index column position.
func (e *Evaluator) ownsAll(nodes []*xmldoc.Node) bool {
	for _, n := range nodes {
		if n != nil && n.Document() != e.Doc {
			return false
		}
	}
	return true
}

// PredHolds evaluates a predicate under env: through a compiled Conds
// when acceleration and plan compilation are on, by the interpreter
// otherwise. The last predicate and variable set compiled are kept, so
// a caller checking one predicate against many bindings compiles it
// once.
func (e *Evaluator) PredHolds(p *Pred, env Env) bool {
	if !e.accel || !e.compile {
		return e.predHolds(p, scopeOf(env))
	}
	c := e.predMemo
	if c == nil || c.src[0] != p || !sameVarSet(c.vars, env) {
		vars := make([]string, 0, len(env))
		for v := range env {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		c = e.CompileConds(vars, []*Pred{p})
		e.predMemo = c
	}
	vals := e.predVals[:0]
	for _, v := range c.vars {
		vals = append(vals, env[v])
	}
	e.predVals = vals
	return e.CondsHold(c, vals)
}

// sameVarSet reports whether env binds exactly the names in vars.
func sameVarSet(vars []string, env Env) bool {
	if len(vars) != len(env) {
		return false
	}
	for _, v := range vars {
		if _, ok := env[v]; !ok {
			return false
		}
	}
	return true
}

// CondExtent is the compiled extent of a node with the Where clause of
// one node on its binding chain lifted out: the enumeration does not
// filter that level, and instead records for every binding which of
// the lifted predicates its candidate at that level satisfies. One
// enumeration then answers, for every subset of the lifted predicates,
// what the extent would be with only that subset in the Where clause.
// Like Conds, it recompiles after its evaluator's compile arena resets.
type CondExtent struct {
	ev           *Evaluator
	gen          uint64
	leaf, anchor *Node
	// plan enumerates leaf's chain without filtering the anchor's
	// level (chain index level), whose Where clause bits holds.
	plan  *nodePlan
	level int
	bits  []predPlan
	words int
}

// CondHits is one CondExtent run: every binding the enumeration emits,
// once per derivation, ordered by node ID (stably), each with Words
// uint64 words of condition bits — bit k of word k/64 set when lifted
// predicate k holds.
type CondHits struct {
	Nodes []*xmldoc.Node
	Masks []uint64
	Words int
}

// Mask returns the condition bits of entry i.
func (h *CondHits) Mask(i int) []uint64 { return h.Masks[i*h.Words : (i+1)*h.Words] }

// CompileCondExtent compiles leaf's extent with anchor's Where clause
// lifted into condition bits. The tree must not change while the
// CondExtent is in use; the compiled executor runs it whatever the
// evaluator's toggles.
func (e *Evaluator) CompileCondExtent(leaf, anchor *Node) (*CondExtent, error) {
	ce := &CondExtent{leaf: leaf, anchor: anchor, words: (len(anchor.Where) + 63) / 64}
	if err := e.compileCondExtent(ce); err != nil {
		return nil, err
	}
	return ce, nil
}

func (e *Evaluator) compileCondExtent(ce *CondExtent) error {
	chain := ce.leaf.BindingChain()
	level := slices.Index(chain, ce.anchor)
	p := e.compileExtent(ce.leaf, ce.anchor)
	if p == nil || level < 0 {
		return fmt.Errorf("xq: CompileCondExtent(%s, %s): %w", ce.leaf.Name(), ce.anchor.Name(), ErrNotOnChain)
	}
	slotOf := func(name string, upto int) int { return chainSlot(chain, name, upto) }
	ce.bits = make([]predPlan, len(ce.anchor.Where))
	for k, pr := range ce.anchor.Where {
		ce.bits[k] = e.compilePred(pr, level, p.relaySlot, slotOf)
	}
	ce.ev, ce.gen, ce.plan, ce.level = e, e.comp.gen, p, level
	return nil
}

// CondExtent runs ce with the variables in pinned fixed, as Extent
// does, and returns its hits in dst's storage. The context is checked
// as the compiled extent executor checks it.
func (e *Evaluator) CondExtent(ctx context.Context, ce *CondExtent, pinned Env, dst CondHits) (CondHits, error) {
	dst.Nodes, dst.Masks, dst.Words = dst.Nodes[:0], dst.Masks[:0], ce.words
	if err := ctxErr(ctx); err != nil {
		return dst, err
	}
	if ce.ev != e || ce.gen != e.comp.gen {
		if err := e.compileCondExtent(ce); err != nil {
			return dst, err
		}
	}
	p := ce.plan
	if p.dead {
		return dst, nil
	}
	e.resetEnv(p)
	e.exe.lift, e.exe.hits, e.exe.masks = ce, e.exe.hits[:0], e.exe.masks[:0]
	err := e.execLevel(ctx, p, 0, pinned, nil)
	e.exe.lift = nil
	if err != nil {
		return dst, err
	}
	// Order by node ID, keeping derivation order among equal nodes; the
	// enumeration is usually in document order already.
	hits, masks := e.exe.hits, e.exe.masks
	perm := e.exe.pos[:0]
	for i := range hits {
		perm = append(perm, int32(i))
	}
	if !slices.IsSortedFunc(hits, cmpNodeID) {
		slices.SortStableFunc(perm, func(a, b int32) int { return cmpNodeID(hits[a], hits[b]) })
	}
	e.exe.pos = perm
	for _, i := range perm {
		dst.Nodes = append(dst.Nodes, hits[i])
		dst.Masks = append(dst.Masks, masks[int(i)*ce.words:(int(i)+1)*ce.words]...)
	}
	return dst, nil
}

func cmpNodeID(a, b *xmldoc.Node) int { return a.ID - b.ID }

// condBits sets the arena's current condition bits from bits, the
// lifted predicates, under the current slot environment.
func (e *Evaluator) condBits(bits []predPlan) {
	m := e.exe.mask[:0]
	for range (len(bits) + 63) / 64 {
		m = append(m, 0)
	}
	for k := range bits {
		if e.planPredHolds(&bits[k]) {
			m[k/64] |= 1 << (k % 64)
		}
	}
	e.exe.mask = m
}
