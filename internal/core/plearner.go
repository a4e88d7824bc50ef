package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// provenance records where a cached membership answer came from; R2
// answers are heuristic and may be retracted (Section 8).
type provenance uint8

const (
	provNone      provenance = iota // no answer yet
	provAsked                       // the user answered
	provR1                          // auto-answered: no such path in the instance/schema
	provR2                          // auto-answered: last-tag heuristic
	provDrop                        // the dropped example itself
	provCE                          // established by a counterexample
	provCorrected                   // flipped after an inconsistency
)

// pans is one word's cached membership answer. It holds no pointers, so
// the answer slice costs the garbage collector nothing to scan.
type pans struct {
	ans  bool
	prov provenance
}

// fragScratch is a fragment learner's word-ID-indexed state, pooled
// across fragments so its capacity survives (see pLearner.bind).
type fragScratch struct {
	ans  []pans
	path []int32
	fst  []int32
}

var fragPool = sync.Pool{New: func() any { return new(fragScratch) }}

// r2mode is the state machine of rule R2: Active (defaults N unless the
// last tag matches the dropped example's), AnyTag (after one positive
// counterexample with a different last tag: no more defaults, heuristic
// still armed), Off (a negative counterexample under the relaxed
// assumption discards the rule entirely).
type r2mode int

const (
	r2Active r2mode = iota
	r2AnyTag
	r2Off
)

// restartErr signals that a cached answer was corrected and the
// observation table must be rebuilt (the paper's "corrects them if it
// finds inconsistencies"); answers are replayed from the cache, so no
// user interactions are repeated. It flows through the angluin.Teacher
// error return and is caught in run with errors.As.
type restartErr struct{ reason string }

func (e restartErr) Error() string { return "core: restart L*: " + e.reason }

// pLearner learns one fragment: the path DFA (P-Learner) interleaved
// with condition learning (C-Learner) and explicit Condition Boxes.
type pLearner struct {
	ctx     context.Context // the session context, checked per membership query and EQ
	eng     *Engine
	frag    FragmentRef
	pinCtx  map[string]*xmldoc.Node // pins for teacher extent queries
	condCtx map[string]*xmldoc.Node // anchor vars only, for the data graph

	example     *xmldoc.Node // the dropped node
	stripLevels int          // 1 for a 1-labeled pair, else 0

	// words interns every word of the fragment's dialogue; its node IDs
	// are the keys of the answer state below and stay valid across L*
	// restarts (see run). ans is the dialogue's answer per word ID
	// (prov == provNone: not answered yet). path maps a word ID to its
	// index in the engine's instance paths, -1 for words no instance
	// node realizes; it is filled when the instance paths are interned
	// and never written afterwards. All three live between bind and
	// unbind.
	words *angluin.Words
	ans   []pans
	path  []int32
	sc    *fragScratch
	// fst memoizes the R1 metadata filter's state per word ID (see
	// PathFilter; -1 a rejected path, fstUnknown not stepped yet).
	fst []int32
	// posWords holds the word IDs of positives[:len(posWords)], filled
	// as positiveSharesPath needs them.
	posWords []int32

	r2 r2mode
	// lastSym is the ID of the dropped example's last label in the
	// engine's symbol table, so rule R2 compares a word's last label by
	// ID (Words.LastSym) without building the word.
	lastSym int32

	clearner  *cLearner
	explicit  []*xq.Pred
	positives []*xmldoc.Node

	// conds is the conjunction condsHold checks — the C-Learner's
	// predicates, then the explicit ones — compiled over condVals'
	// slots: the context anchors in name order, then the fragment's
	// anchor variable (anchorSlot) and its own (varSlot), which condsHold
	// fills per candidate. condGen and condN are the C-Learner
	// generation and explicit count it was compiled at.
	conds               *xq.Conds
	condGen, condN      int
	condVars            []string
	condVals            []*xmldoc.Node
	anchorSlot, varSlot int
	// hypBuf is hypothesisExtent's scratch.
	hypBuf []*xmldoc.Node

	// structural implements the paper's navigational binding prior
	// (depends(n) = ancestors(n), Section 7): when the dropped example
	// lies inside a context anchor's subtree, the fragment is assumed to
	// bind relative to that variable, so hypothesis extents are
	// restricted to that subtree. A positive counterexample outside the
	// subtree refutes the assumption.
	structural bool
	relAnchor  *xmldoc.Node

	// hypDFA/hypPaths cache the instance paths the current hypothesis
	// DFA accepts. The EQ loop re-materializes the hypothesis extent for
	// the same DFA every condition-refinement iteration; acceptance
	// depends only on the DFA, so it is computed once per hypothesis.
	hypDFA   *pathre.DFA
	hypPaths []int32

	// mirror is the fragment context's prefetched truth knowledge under
	// the batched protocol (nil serially); see batched.go.
	mirror *mirror

	learned *pathre.DFA
	stats   *FragmentStats
}

func newPLearner(ctx context.Context, eng *Engine, frag FragmentRef, pinCtx, condCtx map[string]*xmldoc.Node,
	example *xmldoc.Node, strip int, stats *FragmentStats) *pLearner {
	p := &pLearner{
		ctx: ctx, eng: eng, frag: frag, pinCtx: pinCtx, condCtx: condCtx,
		example: example, stripLevels: strip, stats: stats,
		clearner: newCLearner(eng.graph, condCtx, frag.AnchorVar),
	}
	if !eng.Opts.R2 {
		p.r2 = r2Off
	}
	// Deepest context anchor containing the example, if any.
	for _, n := range condCtx {
		if n.IsAncestorOf(example) && (p.relAnchor == nil || p.relAnchor.IsAncestorOf(n)) {
			p.relAnchor = n
		}
	}
	p.structural = p.relAnchor != nil
	for k := range condCtx {
		if k != frag.AnchorVar && k != frag.Var {
			p.condVars = append(p.condVars, k)
		}
	}
	slices.Sort(p.condVars)
	for _, k := range p.condVars {
		p.condVals = append(p.condVals, condCtx[k])
	}
	p.anchorSlot = len(p.condVars)
	p.condVars = append(p.condVars, frag.AnchorVar)
	p.condVals = append(p.condVals, nil)
	p.varSlot = p.anchorSlot
	if frag.Var != frag.AnchorVar {
		p.varSlot++
		p.condVars = append(p.condVars, frag.Var)
		p.condVals = append(p.condVals, nil)
	}
	p.addPositive(example)
	return p
}

// bind sets up the fragment's word state for run: a Words over the
// engine's shared symbol table, every instance path interned into it
// from its alphabet positions, and the dropped example's path answered
// Yes.
func (p *pLearner) bind() {
	p.sc = fragPool.Get().(*fragScratch)
	p.words = angluin.NewWords(p.eng.syms, p.eng.alphabet)
	path := p.sc.path[:0]
	for i := range p.eng.paths {
		id := p.words.InternAlpha(p.eng.paths[i].Pos)
		for len(path) <= int(id) {
			path = append(path, -1)
		}
		path[id] = int32(i)
	}
	p.path = path
	p.ans = p.sc.ans[:0]
	ex := p.words.Intern(p.example.Path())
	p.lastSym = p.words.LastSym(ex)
	p.setAns(ex, pans{ans: true, prov: provDrop})
	p.fst = p.sc.fst[:0]
}

// unbindHook, set by tests only, sees each fragment's Words as its
// learning ends, before the Words is released.
var unbindHook func(*angluin.Words)

// unbind returns the word state to the pools.
func (p *pLearner) unbind() {
	p.sc.ans, p.sc.path, p.sc.fst = p.ans[:0], p.path[:0], p.fst[:0]
	fragPool.Put(p.sc)
	if unbindHook != nil {
		unbindHook(p.words)
	}
	p.words.Release()
	p.sc, p.words, p.ans, p.path, p.fst, p.posWords = nil, nil, nil, nil, nil, nil
}

// answer returns the dialogue's answer for word id, if it has one.
func (p *pLearner) answer(id int32) (pans, bool) {
	if int(id) < len(p.ans) && p.ans[id].prov != provNone {
		return p.ans[id], true
	}
	return pans{}, false
}

func (p *pLearner) setAns(id int32, a pans) {
	if int(id) >= len(p.ans) {
		// Cover every ID the Words has issued so far in one step. The
		// pooled backing array may hold a previous fragment's answers
		// past len, so the new range is cleared.
		old, n := len(p.ans), max(int(id)+1, p.words.Len())
		p.ans = slices.Grow(p.ans, n-old)[:n]
		clear(p.ans[old:])
	}
	p.ans[id] = a
}

// nodesAt returns the instance nodes whose root path is word id.
func (p *pLearner) nodesAt(id int32) []*xmldoc.Node {
	if int(id) < len(p.path) {
		if i := p.path[id]; i >= 0 {
			return p.eng.paths[i].Nodes
		}
	}
	return nil
}

// anchor maps an extent node to the node its conditions live on (the
// 1-labeled parent for pair fragments).
func (p *pLearner) anchor(n *xmldoc.Node) *xmldoc.Node {
	for i := 0; i < p.stripLevels && n.Parent != nil; i++ {
		n = n.Parent
	}
	return n
}

func (p *pLearner) addPositive(n *xmldoc.Node) {
	for _, q := range p.positives {
		if q == n {
			return
		}
	}
	p.positives = append(p.positives, n)
	p.clearner.Observe(p.anchor(n))
}

// condsHold evaluates the learned conjunction plus explicit predicates
// for extent candidate n, with the context anchors bound as in
// condCtx, the fragment's anchor variable to n's anchor and its own
// variable to n.
func (p *pLearner) condsHold(n *xmldoc.Node) bool {
	if p.conds == nil || p.condGen != p.clearner.gen || p.condN != len(p.explicit) {
		p.conds = p.eng.eval.CompileConds(p.condVars, slices.Concat(p.clearner.Preds(), p.explicit))
		p.condGen, p.condN = p.clearner.gen, len(p.explicit)
	}
	p.condVals[p.anchorSlot] = p.anchor(n)
	p.condVals[p.varSlot] = n
	return p.eng.eval.CondsHold(p.conds, p.condVals)
}

// memberID implements the L* membership oracle for one query, the word
// with ID id in p.words: the session context is checked, then the rule
// pipeline answers — cache → R1 → R2 → ask the user about a
// representative node. The rules decide from the word's trie node,
// never from the word.
func (p *pLearner) memberID(id int32) (bool, error) {
	if err := ctxErr(p.ctx); err != nil {
		return false, err
	}
	if a, ok := p.answer(id); ok {
		return a.ans, nil
	}
	nodes := p.nodesAt(id)
	r1 := p.r1No(id, nodes)
	r2 := p.r2Applicable(id)
	if r1 || r2 {
		p.chargeReduced(r1, r2)
		prov := provR1
		if !r1 {
			prov = provR2
		}
		p.setAns(id, pans{ans: false, prov: prov})
		return false, nil
	}
	// Ask the user. With no node at this path the user still has to
	// dismiss the query (counts as an interaction; this is what R1
	// eliminates).
	if len(nodes) == 0 {
		p.stats.MQ++
		p.setAns(id, pans{ans: false, prov: provAsked})
		return false, nil
	}
	rep := nodes[0]
	for _, n := range nodes {
		if p.condsHold(n) {
			rep = n
			break
		}
	}
	ans, err := p.askMember(rep)
	if err != nil {
		return false, fmt.Errorf("core: fragment %s: membership query: %w", p.frag.Var, err)
	}
	p.stats.MQ++
	p.setAns(id, pans{ans: ans, prov: provAsked})
	if ans {
		p.addPositive(rep)
	}
	return ans, nil
}

// chargeReduced charges one word the auto-answer rules answered No,
// r1 and r2 telling which rules apply to it.
func (p *pLearner) chargeReduced(r1, r2 bool) {
	if r1 {
		p.stats.ReducedR1++
	}
	if r2 {
		p.stats.ReducedR2++
	}
	if r1 && r2 {
		p.stats.ReducedBoth++
	}
	p.stats.ReducedTotal++
}

// deadStep implements angluin.Deducer: rule R1 decided once per trie
// node. It reports whether the word of live node id extended by sym —
// and with it every extension, since realizable paths are prefix-closed
// — is one R1 answers No. Without a metadata filter the instance
// decides, and bind interned every realized path, so a child the Words
// lacks is unrealized. A filter steps the parent's state by the label.
// With R1 off nothing is dead and the learner asks every word.
func (p *pLearner) deadStep(id, sym int32) bool {
	if !p.eng.Opts.R1 {
		return false
	}
	f := p.eng.Opts.R1Filter
	if f == nil {
		return true
	}
	st := p.filterState(id)
	return st < 0 || f.StepPath(st, p.words.Sym(sym)) < 0
}

// fstUnknown marks a word whose filter state is not stepped yet.
const fstUnknown = -2

// filterState returns node id's R1 filter state (state 0 is the empty
// path), stepping it from the nearest memoized ancestor's and memoizing
// what it steps.
func (p *pLearner) filterState(id int32) int32 {
	for len(p.fst) < p.words.Len() {
		p.fst = append(p.fst, fstUnknown)
	}
	if st := p.fst[id]; st != fstUnknown {
		return st
	}
	st := int32(0)
	if par := p.words.Parent(id); par >= 0 {
		if st = p.filterState(par); st >= 0 {
			st = max(p.eng.Opts.R1Filter.StepPath(st, p.words.Sym(p.words.LastSym(id))), -1)
		}
	}
	p.fst[id] = st
	return st
}

// deduced implements angluin.Deducer: the learner met a word in R1's
// dead region for the first time and answered it No without asking,
// so the rule is charged here, once per distinct word, with R2
// classifying the word by its last label exactly as member does.
func (p *pLearner) deduced(_, rest int32) {
	p.chargeReduced(true, p.r2Rejects(p.words.RestLastSym(rest)))
}

// r1No reports whether rule R1 answers word id No: the empty word (the
// document node is never an extent member), a word the metadata filter
// rejects, or, without a filter, a word no instance node realizes
// (nodes are the word's instance nodes). The learner deduces R1's dead
// region itself (deadStep), so a word it asks about is rejected here
// only when it is ε or an instance path the filter rejects — an
// instance that does not conform to its schema.
func (p *pLearner) r1No(id int32, nodes []*xmldoc.Node) bool {
	switch {
	case !p.eng.Opts.R1:
		return false
	case p.words.Depth(id) == 0:
		return true
	case p.eng.Opts.R1Filter != nil:
		return p.filterState(id) < 0
	}
	return len(nodes) == 0
}

// r2Applicable reports whether rule R2 answers word id No: the rule is
// active and the word's last label is not the dropped example's.
func (p *pLearner) r2Applicable(id int32) bool {
	return p.words.Depth(id) > 0 && p.r2Rejects(p.words.LastSym(id))
}

// r2Rejects reports whether rule R2 answers No for a non-empty word
// whose last label has symbol ID last.
func (p *pLearner) r2Rejects(last int32) bool {
	return p.r2 == r2Active && last != p.lastSym
}

// positiveSharesPath reports whether a known positive example has the
// same root path as word id (evidence that the path language is right
// and a value condition is missing). Paths compare by word ID: bind
// interned every instance path, so interning a positive's path finds
// its node and adds none.
func (p *pLearner) positiveSharesPath(id int32) bool {
	for len(p.posWords) < len(p.positives) {
		p.posWords = append(p.posWords, p.words.Intern(p.positives[len(p.posWords)].Path()))
	}
	return slices.Contains(p.posWords, id)
}

// positivesShareRelPath reports whether every known positive's anchor
// sits at the same relative label path below the given context node
// (the precondition for structural relativization).
func (p *pLearner) positivesShareRelPath(ctxNode *xmldoc.Node, steps []string) bool {
	for _, q := range p.positives {
		a := p.anchor(q)
		if !ctxNode.IsAncestorOf(a) {
			return false
		}
		rel := labelsBetween(ctxNode, a)
		if len(rel) != len(steps) {
			return false
		}
		for i := range rel {
			if rel[i] != steps[i] {
				return false
			}
		}
	}
	return true
}

// hypothesisExtent materializes the extent the hypothesis (DFA +
// conditions) denotes: every instance node whose path the DFA accepts
// and whose anchor satisfies the conditions.
func (p *pLearner) hypothesisExtent(h *pathre.DFA) []*xmldoc.Node {
	if p.hypDFA != h {
		p.hypDFA = h
		p.hypPaths = p.eng.acceptedPaths(p.hypPaths[:0], h)
	}
	ix := p.eng.eval.Index()
	out := p.hypBuf[:0]
	for _, i := range p.hypPaths {
		for _, n := range p.eng.paths[i].Nodes {
			if p.structural && !ix.Ancestor(p.relAnchor, n) {
				continue
			}
			if p.condsHold(n) {
				out = append(out, n)
			}
		}
	}
	sortByID(out)
	p.hypBuf = out
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

func sortByID(nodes []*xmldoc.Node) {
	slices.SortFunc(nodes, func(a, b *xmldoc.Node) int { return cmp.Compare(a.ID, b.ID) })
}

// Equivalent implements the L* equivalence oracle at the extent level:
// it keeps refining conditions (C-Learner / Condition Boxes) for the
// fixed path hypothesis, returning to L* only with path counterexamples.
func (p *pLearner) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	for iter := 0; iter <= p.eng.Opts.MaxEQ; iter++ {
		if err := ctxErr(p.ctx); err != nil {
			return nil, false, err
		}
		hyp := p.hypothesisExtent(h)
		ce, positive, ok, err := p.askEquivalent(hyp)
		if err != nil {
			return nil, false, fmt.Errorf("core: fragment %s: equivalence query: %w", p.frag.Var, err)
		}
		if ok {
			p.learned = h
			return nil, true, nil
		}
		p.stats.CE++
		if ce == nil {
			return nil, false, fmt.Errorf("core: fragment %s: %w", p.frag.Var, ErrNoCounterexample)
		}
		if positive {
			s, err := p.processPositive(h, ce)
			if err != nil {
				return nil, false, err
			}
			if s != nil {
				return s, false, nil
			}
			continue
		}
		handled, err := p.processNegative(h, ce)
		if err != nil {
			return nil, false, err
		}
		if handled {
			continue
		}
		return ce.Path(), false, nil
	}
	return nil, false, fmt.Errorf("core: fragment %s: %w (%d)", p.frag.Var, ErrMaxEQ, p.eng.Opts.MaxEQ)
}

// processPositive handles a node the user added to the extent. It may
// weaken the learned conditions, correct cached path answers (possibly
// restarting L* via a restartErr), and return a path counterexample for
// L* (nil if the path hypothesis already accepts it).
func (p *pLearner) processPositive(h *pathre.DFA, ce *xmldoc.Node) ([]string, error) {
	if p.structural && !p.relAnchor.IsAncestorOf(ce) {
		// The extent reaches outside the context anchor's subtree: the
		// binding is not navigational after all — fall back to a rooted
		// binding with learned joins.
		p.structural = false
	}
	if !p.condsHold(ce) {
		// The strongest-conjunction hypothesis was too strong: remove
		// predicates the counterexample violates (Figure 13 step).
		p.clearner.Observe(p.anchor(ce))
		for _, pr := range p.explicit {
			env := p.envFor(ce)
			if !p.eng.eval.PredHolds(pr, env) {
				return nil, fmt.Errorf(
					"core: positive counterexample violates the user-given condition %s", pr.Key())
			}
		}
	}
	p.addPositive(ce)
	w := ce.Path()
	id := p.words.Intern(w)
	if p.r2Applicable(id) {
		// Section 8, rule R2: a positive counterexample whose last tag
		// differs from the dropped example's refutes the last-tag
		// assumption — discard the heuristic answers and relax.
		return nil, p.backtrackR2(id, w)
	}
	if h.Accepts(w) {
		return nil, nil // condition-side counterexample only
	}
	if a, ok := p.answer(id); ok && !a.ans {
		// The table holds a wrong No for this path: correct and restart.
		p.setAns(id, pans{ans: true, prov: provCorrected})
		return nil, restartErr{reason: "corrected membership answer for " + strings.Join(w, "/")}
	}
	p.setAns(id, pans{ans: true, prov: provCE})
	return w, nil
}

// backtrackR2 implements R2's backtracking: discard every heuristic
// answer and relax the last-tag assumption, then restart L*.
func (p *pLearner) backtrackR2(id int32, w []string) error {
	for i := range p.ans {
		if p.ans[i].prov == provR2 {
			p.ans[i] = pans{}
		}
	}
	p.setAns(id, pans{ans: true, prov: provCorrected})
	p.r2 = r2AnyTag
	return restartErr{reason: "R2 backtrack: positive counterexample ends with " + w[len(w)-1]}
}

// processNegative handles a node the user removed from the hypothesis
// extent. It returns true when handled internally (Condition Box), or
// false when the path hypothesis must shrink (L* counterexample; the
// caller returns ce's path).
func (p *pLearner) processNegative(h *pathre.DFA, ce *xmldoc.Node) (bool, error) {
	id := p.words.Intern(ce.Path())
	if p.positiveSharesPath(id) {
		// A positive shares this path: the path language is right, so a
		// value condition outside the learnable family is missing —
		// open a Condition Box (Section 9(3), triggered by the IHT
		// inconsistency).
		entries, err := p.conditionBox(ce)
		if err != nil {
			return false, fmt.Errorf("core: fragment %s: Condition Box: %w", p.frag.Var, err)
		}
		if len(entries) == 0 {
			return false, fmt.Errorf(
				"core: fragment %s needs an explicit condition to exclude %s: %w",
				p.frag.Var, ce.PathString(), ErrEmptyConditionBox)
		}
		if err := p.applyBoxes(entries, ce); err != nil {
			return false, err
		}
		return true, nil
	}
	if p.r2 == r2AnyTag {
		p.r2 = r2Off // negative counterexample under the relaxed assumption
	}
	p.setAns(id, pans{ans: false, prov: provCE})
	return false, nil
}

func (p *pLearner) envFor(n *xmldoc.Node) xq.Env {
	env := xq.Env{}
	for k, v := range p.condCtx {
		env[k] = v
	}
	env[p.frag.AnchorVar] = p.anchor(n)
	env[p.frag.Var] = n
	return env
}

// applyBoxes turns Condition Box entries into explicit predicates via
// the data graph (the Figure 6 boxed subexpression derivation).
func (p *pLearner) applyBoxes(entries []BoxEntry, ce *xmldoc.Node) error {
	for _, e := range entries {
		p.stats.CB++
		terms := e.Terms
		if terms == 0 {
			terms = 3
		}
		p.stats.CBTerms += terms
		if e.Pred != nil {
			p.explicit = append(p.explicit, e.Pred)
			continue
		}
		if e.Select == nil {
			return fmt.Errorf("core: Condition Box entry without node or predicate")
		}
		condNode := e.Select(p.eng.Source, ce)
		if condNode == nil {
			return fmt.Errorf("core: Condition Box selector returned no node")
		}
		// PCB derives from the positive example's situation; NCB from the
		// negative counterexample's.
		situated := p.example
		if e.Negated && ce != nil {
			situated = ce
		}
		scope := map[string]*xmldoc.Node{}
		for k, v := range p.condCtx {
			scope[k] = v
		}
		scope[p.frag.AnchorVar] = p.anchor(situated)
		link, ok := p.eng.graph.LinkCondition(scope, condNode)
		if !ok {
			return fmt.Errorf(
				"core: cannot relate Condition Box node %s to the variables in scope", condNode.PathString())
		}
		p.explicit = append(p.explicit, datagraph.BuildConditionPred(link, e.Op, e.Const, e.Negated))
	}
	return nil
}

// run drives L* (with restarts after corrections) and returns the
// learned path DFA. A restartErr from the oracle callbacks rebuilds the
// observation table (the cached answers replay every answered query, so
// no user interaction is repeated); any other error is final. Every
// attempt runs over the fragment's one Words, so word IDs — and the
// answers indexed by them — carry across restarts.
func (p *pLearner) run() (*pathre.DFA, error) {
	const maxRestarts = 64
	p.bind()
	defer p.unbind()
	t := teacherAdapter{p}
	for attempt := 0; ; attempt++ {
		learn := angluin.Learn
		if p.eng.Opts.UseKVLearner {
			learn = angluin.LearnKV
		}
		d, stats, err := learn(p.eng.alphabet, t,
			angluin.WithInitialExample(p.example.Path()),
			angluin.WithMaxEquivalenceQueries(p.eng.Opts.MaxEQ),
			angluin.WithWords(p.words))
		if err == nil {
			p.stats.PathStates = stats.HypothesisStates
			return d, nil
		}
		var r restartErr
		if errors.As(err, &r) {
			p.stats.Restarts++
			if attempt >= maxRestarts {
				return nil, fmt.Errorf("core: fragment %s: too many L* restarts (last: %s)", p.frag.Var, r.reason)
			}
			continue
		}
		return nil, err
	}
}

// teacherAdapter exposes the pLearner as an angluin.Teacher with the ID
// form of the membership seam, whose word IDs are p.words' node IDs,
// and with rule R1 as the learner's Deducer.
type teacherAdapter struct{ p *pLearner }

func (t teacherAdapter) Member(w []string) (bool, error) {
	return t.p.memberID(t.p.words.Intern(w))
}
func (t teacherAdapter) MemberID(id int32) (bool, error) { return t.p.memberID(id) }
func (t teacherAdapter) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return t.p.Equivalent(h)
}
func (t teacherAdapter) DeadStep(id, sym int32) bool { return t.p.deadStep(id, sym) }
func (t teacherAdapter) Deduced(anchor, rest int32)  { t.p.deduced(anchor, rest) }
