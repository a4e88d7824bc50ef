package core

import (
	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// An Option configures a Session or Engine at construction time. The
// functional-option list is the canonical public configuration surface;
// the Options struct remains as the resolved configuration (and as a
// compatibility shim for the older positional constructors, convertible
// with WithOptions).
type Option func(*Options)

// New builds a session over the source document, applying the options
// on top of DefaultOptions. It supersedes NewSession(source, teacher,
// Options); the teacher's methods are called from the goroutine that
// calls Learn.
func New(source *xmldoc.Document, teacher Teacher, opts ...Option) *Session {
	return &Session{engine: newEngine(source, teacher, resolveOptions(opts))}
}

// resolveOptions folds an option list over the defaults.
func resolveOptions(opts []Option) Options {
	o := DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithOptions replays a resolved Options value as one option. It is the
// bridge from the older struct-based configuration: callers holding an
// Options (including the zero value semantics of the positional
// constructors) can pass WithOptions(o) and migrate field by field.
// Note that unlike the other options it replaces the whole
// configuration, so it should come first in an option list.
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// WithR1 toggles the metadata/instance filter rule (Section 8 R1).
func WithR1(on bool) Option {
	return func(o *Options) { o.R1 = on }
}

// WithR2 toggles the last-tag heuristic (Section 8 R2).
func WithR2(on bool) Option {
	return func(o *Options) { o.R2 = on }
}

// WithR1Filter backs R1 with an external metadata oracle (a DTD, a
// DataGuide, a Relax NG schema...). A nil filter falls back to the
// instance's realized paths.
func WithR1Filter(f PathFilter) Option {
	return func(o *Options) { o.R1Filter = f }
}

// WithMaxEQ bounds equivalence queries per fragment; n <= 0 restores
// the default budget of 200.
func WithMaxEQ(n int) Option {
	return func(o *Options) { o.MaxEQ = n }
}

// WithGraphConfig bounds the data-graph predicate enumeration.
func WithGraphConfig(cfg datagraph.Config) Option {
	return func(o *Options) { o.Graph = cfg }
}

// WithKeepRedundantConds disables the post-learning minimization of the
// learned conjunction when keep is true (ablation knob).
func WithKeepRedundantConds(keep bool) Option {
	return func(o *Options) { o.KeepRedundantConds = keep }
}

// WithRelativize toggles rewriting learned rooted paths as
// variable-relative bindings (on by default; the off position is the
// NoRelativize ablation).
func WithRelativize(on bool) Option {
	return func(o *Options) { o.NoRelativize = !on }
}

// WithSharedIndex hands the session a pre-built, immutable evaluator
// index over its source document (typically resolved through an
// internal/artifacts store). The engine then skips its own document
// walk and index build; sessions never mutate the index, so one index
// may back any number of concurrent sessions. An index over a different
// document instance than the session's source is ignored.
func WithSharedIndex(ix *xq.Index) Option {
	return func(o *Options) { o.SharedIndex = ix }
}

// WithSharedGraph hands the session a pre-built, immutable data graph
// over its source document (typically resolved through an
// internal/artifacts store). The engine adopts it — skipping its own
// document walk and value-bucket build — only when the graph's document
// is the session's source and its config equals the session's Graph
// config; otherwise it is ignored and the engine builds its own.
func WithSharedGraph(g *datagraph.Graph) Option {
	return func(o *Options) { o.SharedGraph = g }
}

// WithSharedSymbols hands the session a shared symbol intern table
// (typically the artifact bundle's, see internal/artifacts): every
// fragment learner resolves its alphabet through it, so replicated
// sessions over one document intern each label once instead of once per
// learner. Tables are concurrency-safe and append-only; a nil table is
// ignored and the engine builds a private one.
func WithSharedSymbols(t *angluin.SymbolTable) Option {
	return func(o *Options) { o.SharedSymbols = t }
}

// WithKVLearner swaps Angluin's L* for the Kearns-Vazirani
// classification-tree learner in the P-Learner when on is true (learner
// ablation: fewer membership queries, more equivalence queries).
func WithKVLearner(on bool) Option {
	return func(o *Options) { o.UseKVLearner = on }
}

// WithBatchedProtocol enables the batched, mirrored teacher protocol
// when the session's teacher implements BatchTeacher: answer sets are
// prefetched concurrently per fragment context and the dialogue is
// answered from local mirrors, collapsing per-question round trips to a
// slow teacher. Queries, counterexamples, and all
// interaction counters stay byte-identical to the serial protocol. A
// teacher without a batch interface ignores the option.
func WithBatchedProtocol(on bool) Option {
	return func(o *Options) { o.Batched = on }
}

// WithObserver streams protocol events (MQ batches, answers,
// incremental hypothesis updates) to fn as the session runs — the
// engine-side feed of the daemon's streaming session endpoint. Events
// are serialized; fn must not block for long or call back into the
// session. A nil fn disables observation.
func WithObserver(fn func(Event)) Option {
	return func(o *Options) { o.Observe = fn }
}
