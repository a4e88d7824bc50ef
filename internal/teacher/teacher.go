// Package teacher implements a simulated minimally adequate teacher
// (Section 2) driven by a ground-truth XQ-Tree: membership queries are
// answered by evaluating the target query's extents, equivalence
// queries by set-comparing extents and returning a counterexample from
// the symmetric difference. This substitutes for the paper's human
// user; the deterministic "best-case" counterexample policy mirrors the
// paper's hand-selected examples, and the "worst-case" policy
// reproduces the bracketed measurements of Figure 16 (see DESIGN.md).
package teacher

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Policy selects which counterexample the simulated user returns.
type Policy int

const (
	// BestCase prefers positive counterexamples, shallow nodes, document
	// order — informative answers, like the paper's hand-picked ones.
	BestCase Policy = iota
	// WorstCase prefers negative counterexamples, deep nodes, reverse
	// document order.
	WorstCase
)

// Sim is the simulated teacher.
//
// Question answering is safe for concurrent use: the batched protocol
// dispatches per-fragment prefetches concurrently, so every answering
// method serializes its state (interaction counters, one-shot boxes,
// evaluator caches) behind one mutex. The simulated Latency sleep runs
// before the lock is taken — concurrent round trips overlap their
// latency, which is exactly the win batching models.
type Sim struct {
	// Doc is the source document.
	Doc *xmldoc.Document
	// Truth is the ground-truth XQ-Tree; its for-variables must use the
	// same names as the engine's Drop specs.
	Truth *xq.Tree
	// Boxes supplies Condition Box entries per fragment variable.
	Boxes map[string][]core.BoxEntry
	// Orders supplies OrderBy Box keys per fragment variable.
	Orders map[string][]xq.SortKey
	// Pol is the counterexample policy.
	Pol Policy
	// Latency simulates a slow teacher — a remote endpoint, a human
	// behind a GUI: every answering method sleeps this long once per
	// round trip (context-aware) before touching teacher state. Zero
	// disables the sleep. Set it before learning starts.
	Latency time.Duration

	ev *xq.Evaluator
	// Interactions counts every question the simulated user answered.
	// Under the serial protocol this matches the engine's wire-visible
	// dialogue; under the batched protocol it counts questions answered
	// over the wire (batch prefetches), while the engine's Stats keep
	// counting the replayed dialogue — see core.SpeculationStats.
	Interactions int
	// boxesServed tracks one-shot box delivery per fragment.
	boxesServed map[string]bool
	// mu serializes answering state; see the type comment.
	mu sync.Mutex
}

// New builds a simulated teacher.
func New(doc *xmldoc.Document, truth *xq.Tree) *Sim {
	return &Sim{Doc: doc, Truth: truth, ev: xq.NewEvaluator(doc), boxesServed: map[string]bool{}}
}

// Accelerate rebinds the teacher's evaluator to a shared document
// index, attaches the cross-session memo of pinned truth extents, and
// adopts the precompiled plan set for the Truth tree (all typically
// resolved through an internal/artifacts bundle). Call it before
// learning starts. The index and plan set are adopted only when they
// were built over this teacher's document; se and plan may be shared by
// every teacher evaluating the same Truth tree instance — both are
// keyed by query-node identity, so teachers holding distinct parses of
// the same query text must not share them (a foreign tree's plans are
// simply never matched). Interaction counting is unaffected: questions
// are counted before extents are computed, so shared artifacts change
// speed, never the measured dialogue.
func (s *Sim) Accelerate(ix *xq.Index, se *xq.SharedExtents, plan *xq.TreePlan) {
	if ix != nil && ix.Doc() == s.Doc {
		s.ev = xq.NewEvaluatorWithIndex(ix)
	}
	if se != nil {
		s.ev.ShareExtents(se)
	}
	s.ev.AdoptPlan(plan)
}

// CacheStats reports the hit/miss counters of the teacher's own
// evaluator (the one answering MQ/EQ against the ground truth), for
// aggregation next to the engine's Engine.CacheStats.
func (s *Sim) CacheStats() xq.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ev.CacheStats()
}

// extent computes the true extent for a fragment in the given context.
func (s *Sim) extent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node) ([]*xmldoc.Node, error) {
	n := s.Truth.VarNode(frag.Var)
	if n == nil {
		return nil, fmt.Errorf("teacher: ground truth has no variable $%s", frag.Var)
	}
	pinned := xq.Env{}
	for k, v := range pin {
		// Pin only variables the truth tree actually binds on this
		// fragment's chain.
		if s.Truth.VarNode(k) != nil {
			pinned[k] = v
		}
	}
	return s.ev.Extent(ctx, s.Truth, n, pinned)
}

// delay simulates one round trip to the teacher. It runs before the
// state lock is taken so concurrent questions overlap their latency.
func (s *Sim) delay(ctx context.Context) error {
	if s.Latency <= 0 {
		return nil
	}
	t := time.NewTimer(s.Latency)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cePolicy maps the teacher policy onto the core counterexample policy
// shared with learner-side mirrors.
func (s *Sim) cePolicy() core.CEPolicy {
	if s.Pol == WorstCase {
		return core.CEWorstCase
	}
	return core.CEBestCase
}

// Member implements core.Teacher.
func (s *Sim) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	if err := s.delay(ctx); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Interactions++
	ext, err := s.extent(ctx, frag, pin)
	if err != nil {
		return false, err
	}
	for _, m := range ext {
		if m == n {
			return true, nil
		}
	}
	return false, nil
}

// MemberBatch answers membership for every candidate in one round trip
// (one latency sleep). The engine never calls it: the batched protocol
// answers membership from its fragment mirror (see core.BatchTeacher). Answers are
// indexed by candidate — nodes[i] is answered by the i-th element —
// so callers commit by index, never by arrival order. Large batches
// fan the membership scan out over the shared bounded worker pool.
func (s *Sim) MemberBatch(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, nodes []*xmldoc.Node) ([]bool, error) {
	if err := s.delay(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Interactions += len(nodes)
	ext, err := s.extent(ctx, frag, pin)
	if err != nil {
		return nil, err
	}
	in := make(map[int]bool, len(ext))
	for _, m := range ext {
		in[m.ID] = true
	}
	out := make([]bool, len(nodes))
	if len(nodes) < diffMinLen {
		for i, n := range nodes {
			out[i] = in[n.ID]
		}
		return out, nil
	}
	// Pool path: chunk the candidate list; workers only read the extent
	// set and write disjoint ranges of out, chunk results in index order.
	const chunk = 1024
	nChunks := (len(nodes) + chunk - 1) / chunk
	if _, err := pool.Run(ctx, nChunks, 8, func(_ context.Context, c int) (struct{}, error) {
		lo := c * chunk
		hi := min(lo+chunk, len(nodes))
		for i := lo; i < hi; i++ {
			out[i] = in[nodes[i].ID]
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Equivalent implements core.Teacher.
func (s *Sim) Equivalent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (*xmldoc.Node, bool, bool, error) {
	if err := s.delay(ctx); err != nil {
		return nil, false, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Interactions++
	truth, err := s.extent(ctx, frag, pin)
	if err != nil {
		return nil, false, false, err
	}
	pos, neg := diffExtents(truth, hyp)
	if len(pos) == 0 && len(neg) == 0 {
		return nil, false, true, nil
	}
	ce, positive := s.pick(pos, neg)
	return ce, positive, false, nil
}

// EquivalentFull implements core.BatchTeacher: one round trip ships the
// full symmetric difference plus this teacher's counterexample policy,
// so the engine can mirror the truth extent and replay the rest of the
// fragment's dialogue locally with identical counterexample choices.
func (s *Sim) EquivalentFull(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (add, remove []*xmldoc.Node, pol core.CEPolicy, err error) {
	if err := s.delay(ctx); err != nil {
		return nil, nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Interactions++
	truth, err := s.extent(ctx, frag, pin)
	if err != nil {
		return nil, nil, 0, err
	}
	add, remove = diffExtents(truth, hyp)
	return add, remove, s.cePolicy(), nil
}

// pick selects the policy's counterexample from a non-empty symmetric
// difference; the selection logic lives in core.PickCounterexample so
// learner-side mirrors replay it bit-identically.
func (s *Sim) pick(pos, neg []*xmldoc.Node) (*xmldoc.Node, bool) {
	return core.PickCounterexample(s.cePolicy(), pos, neg)
}

// ConditionBox implements core.Teacher: it serves the scenario's
// pre-declared entries for the fragment, once.
func (s *Sim) ConditionBox(ctx context.Context, frag core.FragmentRef, ce *xmldoc.Node) ([]core.BoxEntry, error) {
	if err := s.delay(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.boxesServed[frag.Var] {
		return nil, nil
	}
	s.boxesServed[frag.Var] = true
	entries := s.Boxes[frag.Var]
	s.Interactions += len(entries)
	return entries, nil
}

// OrderBy implements core.Teacher.
func (s *Sim) OrderBy(ctx context.Context, frag core.FragmentRef) ([]xq.SortKey, error) {
	if err := s.delay(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Orders[frag.Var], nil
}

// SelectByText returns a node selector finding the first node with the
// given label whose text equals value (a scenario convenience).
func SelectByText(label, value string) func(*xmldoc.Document) *xmldoc.Node {
	return func(doc *xmldoc.Document) *xmldoc.Node {
		return doc.FirstWithLabel(label, func(n *xmldoc.Node) bool {
			return strings.TrimSpace(n.Text()) == value
		})
	}
}

// SelectNth returns a selector for the i-th node (0-based, document
// order) with the given label.
func SelectNth(label string, i int) func(*xmldoc.Document) *xmldoc.Node {
	return func(doc *xmldoc.Document) *xmldoc.Node {
		if i < 0 {
			return nil
		}
		seen := 0
		return doc.FirstWithLabel(label, func(*xmldoc.Node) bool {
			seen++
			return seen > i
		})
	}
}
