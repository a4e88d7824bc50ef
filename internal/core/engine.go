package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Engine is the learning machinery of one XLearner session over one
// source document.
//
// An Engine is NOT goroutine-safe: the path index, the evaluator's DFA
// cache, and the realized-path DFA are mutated during Learn. It shares
// no unsynchronized mutable state with other Engine instances, though —
// xmldoc documents are read-only after parsing, every cache here is
// per-instance, and the shared artifacts an engine may adopt (index,
// data graph, plan) are either immutable or internally synchronized —
// so independent Engines (one per Session) may run concurrently over
// the same or different documents.
type Engine struct {
	Source  *xmldoc.Document
	Teacher Teacher
	Opts    Options

	graph    *datagraph.Graph
	eval     *xq.Evaluator
	alphabet []string
	// syms is the symbol intern table every fragment learner resolves
	// its alphabet through — the session's SharedSymbols when one was
	// supplied (bundle-backed sessions intern a document's labels once
	// across all replicas), a private table otherwise.
	syms *angluin.SymbolTable
	// paths groups instance nodes by their root path, in learner order
	// (xq.SortRootPaths): the shared index's table when the session
	// adopted one, else built by the engine's own walk. Read-only.
	paths []xq.RootPath
	// realized caches the DFA of the instance's realized paths.
	realized *pathre.DFA

	// Batched-protocol state (see batched.go). batch is the teacher's
	// batch form, set only when Opts.Batched and the teacher implements
	// it.
	batch BatchTeacher
	// mirMu guards the prefetch tables; the mirrors and stashes they
	// hold are immutable once their ready channels close.
	mirMu   sync.Mutex
	mirrors map[string]*mirror
	stash   map[string]*varStash
	boxUsed map[string]bool
	// prefWG tracks prefetch goroutines; Learn waits for all of them
	// before returning. prefCtx is the session context of the running
	// Learn, which prefetches dispatched mid-session inherit.
	prefWG  sync.WaitGroup
	prefCtx context.Context
	// spec counts the protocol's transport bookkeeping. Only the learn
	// loop writes it.
	spec SpeculationStats
	// obsMu/obsSeq serialize Observe events (see observe.go).
	obsMu  sync.Mutex
	obsSeq int
}

// NewEngine builds an engine for the source document from a resolved
// Options value.
//
// Superseded by core.New (functional options) plus Session.Engine; the
// positional form is kept so existing callers compile and is equivalent
// to New(source, teacher, WithOptions(opts)).Engine().
func NewEngine(source *xmldoc.Document, teacher Teacher, opts Options) *Engine {
	return newEngine(source, teacher, opts)
}

func newEngine(source *xmldoc.Document, teacher Teacher, opts Options) *Engine {
	e := &Engine{
		Source:   source,
		Teacher:  teacher,
		Opts:     opts,
		eval:     xq.NewEvaluator(source),
		alphabet: source.Alphabet(),
		mirrors:  map[string]*mirror{},
		stash:    map[string]*varStash{},
		boxUsed:  map[string]bool{},
	}
	if opts.Batched {
		e.batch, _ = teacher.(BatchTeacher)
	}
	if e.syms = opts.SharedSymbols; e.syms == nil {
		e.syms = angluin.NewSymbolTable(e.alphabet...)
	}
	if g := opts.SharedGraph; g != nil && g.Doc == source && g.Cfg == opts.Graph {
		// Adopt the shared, immutable data graph: same document, same
		// enumeration bounds, so the value buckets are identical to what
		// datagraph.New would rebuild here.
		e.graph = g
	} else {
		e.graph = datagraph.New(source, opts.Graph)
	}
	if e.Opts.MaxEQ <= 0 {
		e.Opts.MaxEQ = 200
	}
	if ix := opts.SharedIndex; ix != nil && ix.Doc() == source {
		// Adopt the shared, immutable index: the evaluator skips its
		// lazy index build, and the root-path table is the index's
		// sorted one, built once per document.
		e.eval = xq.NewEvaluatorWithIndex(ix)
		e.paths = ix.SortedRootPaths()
	} else {
		at := map[string]int{}
		source.Walk(func(n *xmldoc.Node) bool {
			if n.Kind == xmldoc.ElementNode || n.Kind == xmldoc.AttributeNode {
				w := n.Path()
				k := strings.Join(w, "\x00")
				i, ok := at[k]
				if !ok {
					i = len(e.paths)
					at[k] = i
					e.paths = append(e.paths, xq.RootPath{Pos: xq.PathPos(e.alphabet, w)})
				}
				e.paths[i].Nodes = append(e.paths[i].Nodes, n)
			}
			return true
		})
		xq.SortRootPaths(e.paths)
	}
	return e
}

// CacheStats reports the hit/miss counters of the engine evaluator's
// acceleration caches (see internal/xq). The counters cover the
// learner-side evaluation work — extent trials, condition minimization,
// relativization — not the teacher's own evaluator.
func (e *Engine) CacheStats() xq.CacheStats {
	return e.eval.CacheStats()
}

// fragment is one learning unit: a Drop Box plus, for 1-labeled boxes,
// its anchor parent.
type fragment struct {
	drop       Drop
	ref        FragmentRef
	pair       bool
	example    *xmldoc.Node
	anchorNode *xmldoc.Node
	xqAnchor   *xq.Node // the for-node carrying path and conditions
	xqLeaf     *xq.Node // the leaf for-node (== xqAnchor when !pair)
	parent     *fragment
	// learned root path of the anchor variable (before relativization).
	rootExpr pathre.Expr
}

// Learn runs a full session: template, skeleton, LEARN-X1*+ traversal,
// and assembly of the final XQ-Tree. The context is threaded through
// every membership query, equivalence query, and evaluator call;
// canceling it aborts the session promptly with an error matching
// errors.Is(err, context.Canceled).
func (e *Engine) Learn(ctx context.Context, spec *TaskSpec) (*xq.Tree, *Stats, error) {
	if len(spec.Drops) == 0 {
		return nil, nil, fmt.Errorf("core: no dropped examples")
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	template, err := BuildTemplate(spec.Target)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	root, frags, err := e.buildSkeleton(template, spec.Drops, stats)
	if err != nil {
		return nil, nil, err
	}
	tree := xq.NewTree(root)
	// Prefetch: dispatch every fragment context's answer-set fetch up
	// front so the round trips overlap. Contexts whose pins change later
	// (alternate-example switches) miss and are fetched at their
	// fragment start. Learn never returns — success or not — with a
	// prefetch goroutine still running.
	e.prefCtx = ctx
	defer e.prefWG.Wait()
	if e.batch != nil {
		for _, f := range frags {
			pin := map[string]*xmldoc.Node{}
			for a := f.parent; a != nil; a = a.parent {
				pin[a.ref.AnchorVar] = a.anchorNode
				pin[a.ref.Var] = a.example
			}
			e.dispatchPrefetch(f.ref, pin)
		}
	}
	for _, f := range frags {
		fs := FragmentStats{Var: f.ref.Var, TemplatePath: f.ref.TemplatePath}
		if err := e.learnWithAlternates(ctx, tree, f, &fs); err != nil {
			return nil, nil, err
		}
		stats.Fragments = append(stats.Fragments, fs)
		if e.Opts.Observe != nil {
			e.observe(Event{Kind: EventHypothesis, Fragment: f.ref.Var, XQI: tree.String()})
		}
	}
	tree.Renumber()
	stats.Speculation = e.spec
	return tree, stats, nil
}

// boxInfo is a resolved Drop at its template leaf.
type boxInfo struct {
	drop Drop
	leaf *TemplateNode
}

// buildSkeleton resolves drops against the template, computes the
// minimal covering subtree, and materializes XQ nodes (Section 4.1).
func (e *Engine) buildSkeleton(template *TemplateNode, drops []Drop, stats *Stats) (*xq.Node, []*fragment, error) {
	boxes := map[*TemplateNode]boxInfo{}
	marked := map[*TemplateNode]bool{}
	for _, d := range drops {
		leaf := template.Find(d.Path)
		if leaf == nil {
			return nil, nil, fmt.Errorf("core: template has no box at %q", d.Path)
		}
		if _, dup := boxes[leaf]; dup {
			return nil, nil, fmt.Errorf("core: two drops into box %q", d.Path)
		}
		if d.Var == "" {
			return nil, nil, fmt.Errorf("core: drop at %q has no variable name", d.Path)
		}
		node := d.Select(e.Source)
		if node == nil {
			return nil, nil, fmt.Errorf("core: drop at %q selected no node", d.Path)
		}
		boxes[leaf] = boxInfo{drop: d, leaf: leaf}
		for t := leaf; t != nil; t = t.Parent {
			marked[t] = true
		}
		stats.DnD++
		if d.Terms > 0 {
			stats.DnDTerms += d.Terms
		} else {
			stats.DnDTerms++
		}
	}

	var frags []*fragment
	var build func(t *TemplateNode, parentFrag *fragment) *xq.Node
	build = func(t *TemplateNode, parentFrag *fragment) *xq.Node {
		info, isBox := boxes[t]
		switch {
		case isBox && info.drop.Wrap != nil:
			// Nested Drop Box (Figure 14).
			f := &fragment{
				drop:    info.drop,
				ref:     FragmentRef{Var: info.drop.Var, AnchorVar: info.drop.Var, TemplatePath: t.Path()},
				example: info.drop.Select(e.Source),
				parent:  parentFrag,
			}
			f.anchorNode = f.example
			if info.drop.WrapEach {
				// Per-binding transform: <tag>{wrap($v)}</tag> per binding.
				n := &xq.Node{
					Var: info.drop.Var,
					Ret: xq.RElem{Tag: t.Elem, Kids: []xq.RetExpr{info.drop.Wrap(xq.RVar{Name: info.drop.Var})}},
				}
				f.xqAnchor, f.xqLeaf = n, n
				frags = append(frags, f)
				return n
			}
			// Aggregate: holder <tag>{ wrap(child sequence) }</tag> around
			// a var node producing the raw sequence.
			inner := &xq.Node{Var: info.drop.Var, Ret: xq.RVar{Name: info.drop.Var}}
			f.xqAnchor, f.xqLeaf = inner, inner
			holder := &xq.Node{
				Ret:      xq.RElem{Tag: t.Elem, Kids: []xq.RetExpr{info.drop.Wrap(xq.RChild{Node: inner})}},
				Children: []*xq.Node{inner},
			}
			frags = append(frags, f)
			return holder
		case isBox && info.leaf.OneLabeled && info.drop.AnchorVar != "":
			// Should have been handled by the parent (pair). Defensive:
			// fall through to plain fragment if the parent was itself a
			// box (cannot pair).
			fallthrough
		case isBox:
			f := &fragment{
				drop:    info.drop,
				ref:     FragmentRef{Var: info.drop.Var, AnchorVar: info.drop.Var, TemplatePath: t.Path()},
				example: info.drop.Select(e.Source),
				parent:  parentFrag,
			}
			f.anchorNode = f.example
			n := &xq.Node{
				Var:        info.drop.Var,
				Ret:        xq.RElem{Tag: t.Elem, Kids: []xq.RetExpr{xq.RVar{Name: info.drop.Var}}},
				OneLabeled: t.OneLabeled,
			}
			f.xqAnchor, f.xqLeaf = n, n
			frags = append(frags, f)
			// A box may still own marked children (unusual); attach them.
			e.attachChildren(t, n, f, boxes, marked, build)
			return n
		default:
			// Does a 1-labeled marked child box make this node a pair
			// anchor?
			for _, c := range t.Children {
				info, ok := boxes[c]
				if !ok || !c.OneLabeled || info.drop.AnchorVar == "" || info.drop.Wrap != nil {
					continue
				}
				f := &fragment{
					drop: info.drop,
					ref: FragmentRef{
						Var: info.drop.Var, AnchorVar: info.drop.AnchorVar,
						TemplatePath: c.Path(),
					},
					pair:    true,
					example: info.drop.Select(e.Source),
					parent:  parentFrag,
				}
				f.anchorNode = f.example.Parent
				leaf := &xq.Node{
					Var:        info.drop.Var,
					From:       info.drop.AnchorVar,
					Ret:        xq.RElem{Tag: c.Elem, Kids: []xq.RetExpr{xq.RVar{Name: info.drop.Var}}},
					OneLabeled: true,
				}
				anchorN := &xq.Node{
					Var:      info.drop.AnchorVar,
					Ret:      xq.RElem{Tag: t.Elem, Kids: []xq.RetExpr{xq.RChild{Node: leaf}}},
					Children: []*xq.Node{leaf},
				}
				f.xqAnchor, f.xqLeaf = anchorN, leaf
				frags = append(frags, f)
				delete(boxes, c)
				e.attachChildren(t, anchorN, f, boxes, marked, build)
				return anchorN
			}
			// Plain holder.
			h := &xq.Node{Ret: xq.RElem{Tag: t.Elem}}
			e.attachChildren(t, h, parentFrag, boxes, marked, build)
			return h
		}
	}
	root := build(template, nil)
	return root, frags, nil
}

// attachChildren builds the marked template children of t (skipping any
// box already consumed as a pair leaf) under XQ node n.
func (e *Engine) attachChildren(t *TemplateNode, n *xq.Node, parentFrag *fragment,
	boxes map[*TemplateNode]boxInfo, marked map[*TemplateNode]bool,
	build func(*TemplateNode, *fragment) *xq.Node) {
	for _, c := range t.Children {
		if !marked[c] || !hasMarkedBox(c, boxes, marked) {
			continue
		}
		child := build(c, parentFrag)
		n.Children = append(n.Children, child)
		if ret, ok := n.Ret.(xq.RElem); ok {
			ret.Kids = append(ret.Kids, xq.RChild{Node: child})
			n.Ret = ret
		}
	}
}

// hasMarkedBox reports whether t's marked subtree still contains an
// unconsumed box.
func hasMarkedBox(t *TemplateNode, boxes map[*TemplateNode]boxInfo, marked map[*TemplateNode]bool) bool {
	if !marked[t] {
		return false
	}
	if _, ok := boxes[t]; ok {
		return true
	}
	for _, c := range t.Children {
		if hasMarkedBox(c, boxes, marked) {
			return true
		}
	}
	return false
}

// learnWithAlternates learns the fragment, switching context to the
// drop's alternate examples when an attempt fails (Section 2). A
// canceled session is not retried — switching examples cannot answer a
// cancellation.
func (e *Engine) learnWithAlternates(ctx context.Context, tree *xq.Tree, f *fragment, fs *FragmentStats) error {
	err := e.learnFragment(ctx, tree, f, fs)
	if err == nil {
		return nil
	}
	for _, sel := range f.drop.Alternates {
		if ctx.Err() != nil {
			return err
		}
		alt := sel(e.Source)
		if alt == nil {
			continue
		}
		fs.ContextSwitches++
		f.example = alt
		f.anchorNode = alt
		if f.pair {
			f.anchorNode = alt.Parent
		}
		if err = e.learnFragment(ctx, tree, f, fs); err == nil {
			return nil
		}
	}
	return err
}

// learnFragment runs P-Learner/C-Learner for one fragment and fills in
// its XQ nodes.
func (e *Engine) learnFragment(ctx context.Context, tree *xq.Tree, f *fragment, fs *FragmentStats) error {
	pinCtx := map[string]*xmldoc.Node{}
	condCtx := map[string]*xmldoc.Node{}
	for a := f.parent; a != nil; a = a.parent {
		condCtx[a.ref.AnchorVar] = a.anchorNode
		pinCtx[a.ref.AnchorVar] = a.anchorNode
		pinCtx[a.ref.Var] = a.example
	}
	strip := 0
	if f.pair {
		strip = 1
	}
	pl := newPLearner(ctx, e, f.ref, pinCtx, condCtx, f.example, strip, fs)
	pl.mirror = e.dispatchPrefetch(f.ref, pinCtx)
	d, err := pl.run()
	if err != nil {
		return err
	}
	// The hypothesis DFA is only constrained on realized paths; trim
	// never-exercised transitions so the emitted path expression is the
	// instance-relative language actually confirmed by the user.
	d = e.trimDFA(d)

	// Split the learned path across the 1-labeled edge.
	anchorDFA := d
	if f.pair {
		anchorDFA = d.RightQuotient()
		lasts := d.LastSymbols()
		if len(lasts) == 0 {
			return fmt.Errorf("core: fragment %s learned an empty path language", f.ref.Var)
		}
		f.xqLeaf.Path = symAlt(lasts)
	}
	f.rootExpr = pathre.FromDFA(anchorDFA)

	// Relativize against the nearest ancestor fragment where possible
	// (e.g. /site/.../item/description becomes $i/description).
	relThrough := ""
	if !e.Opts.NoRelativize {
		relThrough = e.relativize(f, pl, anchorDFA)
	}
	if relThrough == "" {
		f.xqAnchor.From = ""
		f.xqAnchor.Path = f.rootExpr
	}

	// Conditions live on the anchor node. After relativizing through a
	// variable it becomes "associated" (paper Section 6): learned
	// conditions relating the fragment to it are navigation scaffolding,
	// not part of the legitimate condition family — drop them. Explicit
	// (user-given) conditions always stay.
	var preds []*xq.Pred
	for _, p := range pl.clearner.Preds() {
		if relThrough != "" && predMentions(p, relThrough) {
			continue
		}
		preds = append(preds, p)
	}
	preds = append(preds, pl.explicit...)
	f.xqAnchor.Where = preds

	// Drop predicates that do not affect the extent in any context of
	// the partially assembled query (artifacts of the
	// strongest-conjunction start, e.g. data($d)=data($i/description)
	// once the binding is relative).
	if !e.Opts.KeepRedundantConds {
		if err := e.minimizeConds(ctx, tree, f, preds); err != nil {
			return err
		}
	}

	// OrderBy Box.
	keys, err := e.orderBy(ctx, f.ref)
	if err != nil {
		return fmt.Errorf("core: fragment %s: OrderBy Box: %w", f.ref.Var, err)
	}
	if len(keys) > 0 {
		f.xqAnchor.OrderBy = keys
		fs.OB += len(keys)
	}
	return nil
}

// relativize rewrites the anchor binding relative to an ancestor
// fragment's variable. Two justifications apply, mirroring the paper's
// expr*-factorization (Section 6):
//
//  1. Structural: the fragment was learned under the navigational prior
//     (every positive lies in the context anchor's subtree along the
//     same relative label path). The binding generalizes navigationally
//     even where the learned DFA saw no examples.
//  2. Extensional: the rewritten binding reaches exactly the same
//     instance nodes as the learned rooted path.
//
// It returns the variable relativized through, or "".
func (e *Engine) relativize(f *fragment, pl *pLearner, anchorDFA *pathre.DFA) string {
	// Structural case: force through the prior's anchor fragment.
	if pl.structural {
		for a := f.parent; a != nil; a = a.parent {
			if a.anchorNode != pl.relAnchor {
				continue
			}
			steps := labelsBetween(a.anchorNode, f.anchorNode)
			if len(steps) == 0 {
				break
			}
			if !pl.positivesShareRelPath(a.anchorNode, steps) {
				break
			}
			f.xqAnchor.From = a.ref.AnchorVar
			f.xqAnchor.Path = pathre.Seq(steps...)
			return a.ref.AnchorVar
		}
	}
	// Extensional case.
	learned := e.nodesAccepted(anchorDFA)
	for a := f.parent; a != nil; a = a.parent {
		if a.anchorNode == nil || !isAncestorOrSelf(a.anchorNode, f.anchorNode) || a.anchorNode == f.anchorNode {
			continue
		}
		steps := labelsBetween(a.anchorNode, f.anchorNode)
		if len(steps) == 0 {
			continue
		}
		candidate := pathre.Concat{Parts: []pathre.Expr{a.rootExpr, pathre.Seq(steps...)}}
		cd := pathre.Compile(candidate, anchorDFA.Alphabet)
		if sameNodes(e.nodesAccepted(cd), learned) {
			f.xqAnchor.From = a.ref.AnchorVar
			f.xqAnchor.Path = pathre.Seq(steps...)
			return a.ref.AnchorVar
		}
	}
	return ""
}

// predMentions reports whether the predicate references the variable.
func predMentions(p *xq.Pred, v string) bool {
	if p.RelayFrom == v {
		return true
	}
	for _, a := range p.Atoms {
		if a.L.Var == v || a.R.Var == v {
			return true
		}
	}
	return false
}

// nodesAccepted returns the instance nodes whose root path the DFA
// accepts, in document order.
func (e *Engine) nodesAccepted(d *pathre.DFA) []*xmldoc.Node {
	var out []*xmldoc.Node
	for _, i := range e.acceptedPaths(nil, d) {
		out = append(out, e.paths[i].Nodes...)
	}
	sortByID(out)
	return out
}

// acceptedPaths appends to dst the index of every instance path d
// accepts, in path order, stepping d's transition rows on the paths'
// pre-resolved alphabet positions. Every automaton the engine runs —
// each hypothesis and each path it compiles — is over the engine's
// alphabet; d must be too.
func (e *Engine) acceptedPaths(dst []int32, d *pathre.DFA) []int32 {
	d.MustHaveAlphabet(e.alphabet, "acceptedPaths")
	for i := range e.paths {
		q := d.Start
		for _, a := range e.paths[i].Pos {
			q = d.Trans[q][a]
		}
		if d.Accept[q] {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

func isAncestorOrSelf(a, n *xmldoc.Node) bool {
	return a == n || a.IsAncestorOf(n)
}

func labelsBetween(a, n *xmldoc.Node) []string {
	var rev []string
	for cur := n; cur != nil && cur != a; cur = cur.Parent {
		rev = append(rev, cur.Label())
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// minimizeConds greedily removes predicates that change the fragment's
// extent in no context of the partially assembled query (all satisfying
// assignments of the already-learned ancestor fragments). Dropping only
// globally-redundant predicates preserves the whole-query result
// exactly, while a predicate that matters in some other context — like
// the category join, coincidentally redundant in the learning context —
// is kept.
func (e *Engine) minimizeConds(ctx context.Context, tree *xq.Tree, f *fragment, preds []*xq.Pred) error {
	assignments, err := e.eval.Assignments(ctx, tree, f.xqAnchor)
	if err != nil {
		return err
	}
	extents := func(ps []*xq.Pred) ([][]*xmldoc.Node, error) {
		f.xqAnchor.Where = ps
		// The trial mutates a tree the evaluator has memoized extents
		// for; drop them so every trial is computed against its own
		// predicate set.
		e.eval.InvalidateExtents()
		out := make([][]*xmldoc.Node, len(assignments))
		for i, env := range assignments {
			ext, err := e.eval.Extent(ctx, tree, f.xqLeaf, env)
			if err != nil {
				return nil, err
			}
			out[i] = ext
		}
		return out, nil
	}
	full, err := extents(preds)
	if err != nil {
		return err
	}
	kept := append([]*xq.Pred{}, preds...)
	for i := 0; i < len(kept); {
		trial := append(append([]*xq.Pred{}, kept[:i]...), kept[i+1:]...)
		trialExts, err := extents(trial)
		if err != nil {
			return err
		}
		same := true
		for j, ext := range trialExts {
			if !sameNodes(ext, full[j]) {
				same = false
				break
			}
		}
		if same {
			kept = trial
			continue
		}
		i++
	}
	f.xqAnchor.Where = kept
	e.eval.InvalidateExtents()
	return nil
}

// trimDFA intersects the learned DFA with the instance's realized-path
// language. The hypothesis is only constrained on realized paths (MQs
// on anything else were auto-answered by R1, and extents can't witness
// them), so the L*-minimal automaton folds arbitrary behavior into the
// unconstrained region; the intersection is exactly the set of paths
// the user actually confirmed, and it renders as a readable expression.
func (e *Engine) trimDFA(d *pathre.DFA) *pathre.DFA {
	if e.realized == nil {
		if ix := e.Opts.SharedIndex; ix != nil && ix.Doc() == e.Source {
			// The engine's path table came from this index's walk, so the
			// index's cached build is word-for-word the same construction.
			e.realized = ix.RealizedPathsDFA()
		} else {
			words := make([][]string, 0, len(e.paths))
			for i := range e.paths {
				words = append(words, e.paths[i].Labels(e.alphabet))
			}
			e.realized = pathre.FromStrings(words, e.alphabet)
		}
	}
	return d.Intersect(e.realized)
}

func sameNodes(a, b []*xmldoc.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// symAlt builds the leaf binding expression from the set of final
// symbols of the learned path.
func symAlt(syms []string) pathre.Expr {
	if len(syms) == 1 {
		return pathre.Lit{Label: syms[0]}
	}
	parts := make([]pathre.Expr, len(syms))
	for i, s := range syms {
		parts[i] = pathre.Lit{Label: s}
	}
	return pathre.Alt{Parts: parts}
}
