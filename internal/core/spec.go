package core

import (
	"context"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/dtd"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Drop describes one drag-and-drop of a source node into a template
// Drop Box.
type Drop struct {
	// Path addresses the template box, e.g. "i_list/category/cname".
	Path string
	// Var is the variable name for the leaf fragment. The simulated
	// teacher's ground-truth tree must use the same names.
	Var string
	// AnchorVar names the variable of the 1-labeled parent fragment
	// when the box is 1-labeled (e.g. Var "in", AnchorVar "i"); ignored
	// otherwise.
	AnchorVar string
	// Select picks the dropped node from the source document.
	Select func(doc *xmldoc.Document) *xmldoc.Node
	// Alternates are fallback examples for the same box: if learning
	// from the primary example fails (e.g. it turns out not to express
	// the intent, or no Condition Box can repair it), the engine
	// switches context to the next alternative — the paper's "the user
	// can change the context by switching to other choices of dropped
	// examples to specify the same query" (Section 2).
	Alternates []func(doc *xmldoc.Document) *xmldoc.Node
	// Wrap, when non-nil, declares a function typed into the Drop Box
	// (Nested Drop Box, Section 9(1)): it wraps the sequence produced by
	// the learned fragment, e.g. count(distinct(·)) * 10.
	Wrap func(inner xq.RetExpr) xq.RetExpr
	// WrapEach applies Wrap per binding instead of to the whole sequence
	// (e.g. a currency conversion of each value, XMark Q18).
	WrapEach bool
	// Terms is the terminal count of the box content for the D&D(#t)
	// measurement; 0 means 1 (a plain dropped node).
	Terms int
}

// BoxEntry is one entry of a Condition Box (Section 9(3)): the user
// drops a node, chooses an operator, and enters a constant. A Positive
// Condition Box explains why the dropped positive example is in the
// extent; a Negative Condition Box (Negated) explains why a negative
// counterexample is not.
type BoxEntry struct {
	// Select picks the dropped condition node; it receives the source
	// document and the counterexample that triggered the box (nil when
	// the box was triggered by a positive-side inconsistency).
	Select func(doc *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node
	// Op and Const form the comparison against the dropped node's value.
	// Op OpEmpty ignores Const.
	Op    xq.CmpOp
	Const string
	// Negated marks a Negative Condition Box.
	Negated bool
	// Pred bypasses derivation entirely (for conditions outside the
	// derivable family, e.g. comparisons between two scope variables).
	Pred *xq.Pred
	// Terms is the terminal count for the CB(#t) measurement; 0 means 3
	// (node, operator, constant).
	Terms int
}

// FragmentRef identifies the fragment currently being learned in
// teacher interactions.
type FragmentRef struct {
	// Var is the extent variable (the leaf's).
	Var string
	// AnchorVar carries the conditions (equal to Var for non-pair
	// fragments).
	AnchorVar string
	// TemplatePath addresses the box the example was dropped into.
	TemplatePath string
}

// Teacher is the minimally adequate teacher abstraction (Section 2)
// plus the Section 9 explicit-specification boxes. The engine counts
// every call to Member and every counterexample from Equivalent.
//
// Every method receives the session context and may return an error: a
// canceled context, a closed interaction channel, an exhausted replay
// log. Any teacher error aborts the session immediately and propagates
// out of Engine.Learn wrapped, so callers can match it with
// errors.Is/errors.As (context cancellations satisfy
// errors.Is(err, context.Canceled)).
type Teacher interface {
	// Member answers a membership query: is n in the extent of the
	// fragment under the given pinned context?
	Member(ctx context.Context, frag FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error)
	// Equivalent answers an equivalence query on the highlighted
	// hypothesis extent: ok reports acceptance; otherwise ce is a node
	// from the symmetric difference and positive tells whether it
	// belongs to the true extent.
	Equivalent(ctx context.Context, frag FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (ce *xmldoc.Node, positive bool, ok bool, err error)
	// ConditionBox is invoked when the engine detects that the extent
	// needs a condition outside the learnable family; ce is the
	// offending negative counterexample (nil if unknown). Returning no
	// entries aborts the fragment with ErrEmptyConditionBox.
	ConditionBox(ctx context.Context, frag FragmentRef, ce *xmldoc.Node) ([]BoxEntry, error)
	// OrderBy supplies sort keys for the fragment (OrderBy Box); empty
	// means none.
	OrderBy(ctx context.Context, frag FragmentRef) ([]xq.SortKey, error)
}

// BatchTeacher is an optional Teacher extension for slow teachers — a
// remote endpoint, a human behind a GUI — where per-question round-trip
// latency, not evaluation, dominates session wall-clock. A teacher that
// implements it lets the engine fetch each fragment's answer set in one
// round trip and mirror it locally. EquivalentFull is the prefetch form
// of Equivalent: instead of one counterexample it returns the full
// symmetric difference of the truth extent against hyp (add = truth −
// hyp, remove = hyp − truth) plus the teacher's deterministic
// counterexample policy. The engine reconstructs the truth extent
// (hyp − remove + add), mirrors it, and answers every subsequent
// membership and equivalence question for the fragment locally —
// selecting counterexamples with PickCounterexample(pol, ...) at the
// same dialogue points a serial teacher would answer, so interaction
// counts and experiment tables stay byte-identical to the serial
// protocol.
//
// The engine only uses EquivalentFull when the batched protocol is
// enabled (WithBatchedProtocol); serial sessions never call it.
type BatchTeacher interface {
	Teacher
	// EquivalentFull returns the full symmetric difference of the truth
	// extent against hyp, plus the counterexample-selection policy the
	// teacher would apply serially. hyp may be nil (then add is the
	// whole truth extent).
	EquivalentFull(ctx context.Context, frag FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (add, remove []*xmldoc.Node, pol CEPolicy, err error)
}

// PathFilter answers rule R1's realizability question — is the label
// path possible at all? — one label at a time, so the learner decides
// it once per trie node (see angluin.Deducer). StepPath returns the
// state of the path whose state is from, extended by label, or -1 when
// that path is not realizable. State 0 is the empty path. Realizable
// paths must be prefix-closed: once a path is rejected, every
// extension is. dtd.DTD, dataguide.Guide and relaxng.Schema implement
// it; a filter must be safe for concurrent use.
type PathFilter interface {
	StepPath(from int32, label string) int32
}

// Options configures the engine.
type Options struct {
	// R1 enables the metadata/instance filter rule (Section 8 R1).
	R1 bool
	// R2 enables the last-tag heuristic (Section 8 R2).
	R2 bool
	// R1Filter optionally backs R1 with an external metadata oracle (a
	// DTD, a DataGuide, a Relax NG schema — the paper's prototype used
	// Relax NG). Nil falls back to the instance's realized paths.
	R1Filter PathFilter
	// MaxEQ bounds equivalence queries per fragment (default 200).
	MaxEQ int
	// Graph bounds the data-graph predicate enumeration.
	Graph datagraph.Config
	// KeepRedundantConds disables the post-learning minimization of the
	// learned conjunction (ablation knob).
	KeepRedundantConds bool
	// NoRelativize disables rewriting learned rooted paths as
	// variable-relative bindings (ablation knob).
	NoRelativize bool
	// UseKVLearner swaps Angluin's L* for the Kearns-Vazirani
	// classification-tree learner in the P-Learner (learner ablation:
	// fewer membership queries, more equivalence queries).
	UseKVLearner bool
	// SharedIndex, when set and built over the session's source
	// document, lets the engine adopt a pre-built evaluator index and
	// root-path table instead of walking the document itself. The index
	// is immutable and may be shared by any number of concurrent
	// sessions (see internal/artifacts); an index over a different
	// document instance is ignored.
	SharedIndex *xq.Index
	// SharedGraph, when set, built over the session's source document,
	// and built with the session's Graph config, lets the engine adopt a
	// pre-built data graph instead of walking the document itself. A
	// Graph is immutable after datagraph.New and may back any number of
	// concurrent sessions; a graph over a different document or config is
	// ignored.
	SharedGraph *datagraph.Graph
	// SharedSymbols, when set, is the symbol intern table every learner
	// of the session resolves its alphabet through (see
	// angluin.SymbolTable). Tables are concurrency-safe and append-only,
	// so one table (typically the artifact bundle's) may back any number
	// of concurrent sessions; nil gives the engine a private table
	// shared across its own fragments.
	SharedSymbols *angluin.SymbolTable
	// Batched enables the batched, mirrored teacher protocol when the
	// teacher implements BatchTeacher: fragment answer sets are
	// prefetched concurrently at session start and the dialogue is
	// answered from local mirrors, collapsing per-question round trips. The dialogue itself — queries, counterexamples, counters —
	// is byte-identical to the serial protocol; only who answers (the
	// mirror instead of the wire) changes. Ignored when the teacher has
	// no batch interface.
	Batched bool
	// Observe, when non-nil, receives protocol events (outgoing MQ
	// batches, their answers, incremental hypothesis updates) as the
	// session runs. Callbacks may come from prefetch goroutines but are
	// serialized by the engine; they must not block for long, and must
	// not call back into the session.
	Observe func(Event)
}

// DefaultOptions returns the configuration used in the paper's
// experiments: both rules on, instance-backed R1.
func DefaultOptions() Options {
	return Options{R1: true, R2: true, MaxEQ: 200, Graph: datagraph.DefaultConfig()}
}

// FragmentStats counts the interactions spent learning one fragment.
type FragmentStats struct {
	Var          string
	TemplatePath string
	// MQ is the number of membership queries the user answered.
	MQ int
	// CE is the number of counterexamples the user gave.
	CE int
	// CB / CBTerms count Condition Boxes and their terminal nodes.
	CB      int
	CBTerms int
	// OB counts OrderBy Boxes.
	OB int
	// ReducedR1/R2/Both/Total count auto-answered membership queries by
	// rule applicability (Total = R1 + R2 − Both).
	ReducedR1    int
	ReducedR2    int
	ReducedBoth  int
	ReducedTotal int
	// Restarts counts L* restarts after answer corrections.
	Restarts int
	// ContextSwitches counts retries with alternate dropped examples.
	ContextSwitches int
	// PathStates is the state count of the learned path DFA.
	PathStates int
}

// SpeculationStats counts the batched-protocol bookkeeping of one
// session: the prefetches and the answers the fragment mirrors gave in
// place of wire round trips, both zero for serial sessions. Deliberately
// not part of FragmentStats or Totals — the experiment tables measure
// the paper's dialogue, which the batched protocol reproduces
// byte-for-byte; these counters measure the transport on top of it.
type SpeculationStats struct {
	// Prefetches counts answer-set round trips dispatched per fragment
	// context (one EquivalentFull + ConditionBox + OrderBy group for a
	// variable's first context, EquivalentFull alone after it).
	Prefetches int
	// MirrorAnswers counts dialogue questions (membership and
	// equivalence) answered from a local mirror instead of the wire.
	MirrorAnswers int
	// BatchRounds / BatchedMQ count the L* learner's query sets and the
	// membership queries in them; the KV learner asks every probe on
	// its own and adds nothing. Words in rule R1's
	// dead region are filled by the learner without shipping (see
	// angluin.Deducer), so these transport counters count only the words
	// that reach the teacher's pipeline; the dialogue counters
	// (FragmentStats) still charge every word.
	BatchRounds int
	BatchedMQ   int
	// Kept / Discarded are always zero: the fragment mirror is the
	// protocol's only speculation and it has nothing to reconcile. The
	// fields stay because api.SpeculationV1 carries them on the wire.
	Kept      int
	Discarded int
}

// Stats aggregates a learning session.
type Stats struct {
	// DnD / DnDTerms count dropped examples and their terminals.
	DnD      int
	DnDTerms int
	// Fragments in learning order.
	Fragments []FragmentStats
	// Speculation counts batched-protocol transport work (see
	// SpeculationStats); all zero for serial sessions and excluded from
	// Totals.
	Speculation SpeculationStats
}

// Totals sums the per-fragment counters.
func (s *Stats) Totals() FragmentStats {
	var t FragmentStats
	for _, f := range s.Fragments {
		t.MQ += f.MQ
		t.CE += f.CE
		t.CB += f.CB
		t.CBTerms += f.CBTerms
		t.OB += f.OB
		t.ReducedR1 += f.ReducedR1
		t.ReducedR2 += f.ReducedR2
		t.ReducedBoth += f.ReducedBoth
		t.ReducedTotal += f.ReducedTotal
		t.Restarts += f.Restarts
	}
	return t
}

// TaskSpec is one learning task: the target schema and the dropped
// examples. Explicit boxes are supplied by the Teacher on demand.
type TaskSpec struct {
	// Target is the target schema the template is generated from.
	Target *dtd.DTD
	// Drops in the order the user performs them (the learning order).
	Drops []Drop
}
