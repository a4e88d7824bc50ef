package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// This file is the engine half of the batched, mirrored teacher
// protocol (Options.Batched + a Teacher implementing BatchTeacher).
// The protocol collapses per-question round trips to a slow teacher
// without changing the dialogue itself, and the fragment mirror is its
// one speculation mechanism:
//
//   - At session start the engine dispatches one prefetch per fragment
//     context, concurrently: EquivalentFull(hyp=nil)
//     returns the fragment's full truth extent plus the teacher's
//     counterexample policy, and the first prefetch per fragment
//     variable also collects its Condition Box entries and OrderBy
//     keys. The round trips overlap, so a session pays roughly one
//     latency instead of one per question.
//   - Each fragment then learns against its local mirror: membership is
//     extent lookup, equivalence replays the teacher's counterexample
//     selection via PickCounterexample, Condition Boxes and OrderBy
//     keys are served from the stash at the same dialogue points (and
//     with the same serve-once semantics) a serial teacher would answer
//     them. Every charge to FragmentStats happens exactly where the
//     serial protocol charges it, so experiment tables stay
//     byte-identical.
//   - A fragment context first met mid-session (a mirror miss after an
//     alternate-example switch) dispatches its prefetch at the fragment
//     start — one more overlapped round, same answers.
//
// Concurrency: the prefetches are a batched session's only goroutines
// (the learner starts none). They are tracked by a WaitGroup (prefWG)
// that Learn waits on before returning, on success and on error, and
// every blocking wait selects on the session context, so a canceled
// session neither leaks goroutines nor deadlocks on a mirror that will
// never become ready.

// mirror is one fragment context's prefetched truth knowledge: the
// extent under the pinned ancestor bindings and the teacher's
// counterexample policy. It is immutable once ready is closed, so the
// learn loop may read it without locking.
type mirror struct {
	ready chan struct{} // closed when the prefetch round trip lands
	err   error
	ext   []*xmldoc.Node
	in    map[int]bool // membership by node ID
	pol   CEPolicy
}

// varStash is one fragment variable's prefetched explicit boxes. Like
// the teacher, the engine serves Condition Box entries once per
// fragment variable (Engine.boxUsed); OrderBy keys are served on every
// request.
type varStash struct {
	ready  chan struct{}
	err    error
	boxes  []BoxEntry
	orders []xq.SortKey
}

// mirrorKey identifies a fragment learning context: the fragment
// variable plus the identity of every pinned ancestor binding. An
// alternate-example switch in an ancestor changes the pins and thus the
// key, forcing a fresh prefetch for the new context.
func mirrorKey(frag FragmentRef, pin map[string]*xmldoc.Node) string {
	parts := make([]string, 0, len(pin))
	for k, v := range pin {
		parts = append(parts, k+"="+strconv.Itoa(v.ID))
	}
	sort.Strings(parts)
	return frag.Var + "|" + strings.Join(parts, ",")
}

// prefetchQueries renders the questions one prefetch group ships, for
// the observer's mq_batch frame.
func prefetchQueries(frag FragmentRef, withStash bool) []string {
	q := []string{"equivalent-full $" + frag.Var}
	if withStash {
		q = append(q, "condition-box $"+frag.Var, "order-by $"+frag.Var)
	}
	return q
}

// dispatchPrefetch returns the (possibly not-yet-ready) mirror for one
// fragment context, launching its prefetch unless one is already in
// flight (or done), or nil when the protocol is not batched. It never
// blocks: consumers wait on readiness at the first dialogue point that
// needs the mirror (mirrorReady), so the round trip overlaps with the
// learner's local work — R1/R2 filtering, table building — instead of
// stalling the fragment start. The pin map is copied before the
// goroutine starts, so the caller may keep mutating its own.
func (e *Engine) dispatchPrefetch(frag FragmentRef, pin map[string]*xmldoc.Node) *mirror {
	if e.batch == nil {
		return nil
	}
	key := mirrorKey(frag, pin)
	e.mirMu.Lock()
	if m, ok := e.mirrors[key]; ok {
		e.mirMu.Unlock()
		return m
	}
	m := &mirror{ready: make(chan struct{})}
	e.mirrors[key] = m
	var vs *varStash
	if _, ok := e.stash[frag.Var]; !ok {
		vs = &varStash{ready: make(chan struct{})}
		e.stash[frag.Var] = vs
	}
	e.spec.Prefetches++
	e.mirMu.Unlock()

	pinCopy := make(map[string]*xmldoc.Node, len(pin))
	for k, v := range pin {
		pinCopy[k] = v
	}
	ctx := e.prefCtx
	e.prefWG.Add(1)
	go func() {
		defer e.prefWG.Done()
		emit := e.observePair(Event{Fragment: frag.Var, Queries: prefetchQueries(frag, vs != nil)})
		// The answer-set fetches are independent round trips, so they
		// fly concurrently: against a slow teacher the whole prefetch
		// costs one round trip of latency, not three.
		var inner sync.WaitGroup
		inner.Add(1)
		go func() {
			defer inner.Done()
			add, _, pol, err := e.batch.EquivalentFull(ctx, frag, pinCopy, nil)
			if err == nil {
				m.ext = add
				m.pol = pol
				m.in = make(map[int]bool, len(add))
				for _, n := range add {
					m.in[n.ID] = true
				}
			}
			m.err = err
			close(m.ready)
		}()
		var orders []xq.SortKey
		var orderErr error
		if vs != nil {
			inner.Add(2)
			go func() {
				defer inner.Done()
				vs.boxes, vs.err = e.batch.ConditionBox(ctx, frag, nil)
			}()
			go func() {
				defer inner.Done()
				orders, orderErr = e.batch.OrderBy(ctx, frag)
			}()
		}
		inner.Wait()
		ok := m.err == nil
		if vs != nil {
			vs.orders = orders
			if vs.err == nil {
				vs.err = orderErr
			}
			ok = ok && vs.err == nil
			close(vs.ready)
		}
		answers := make([]bool, 1)
		if vs != nil {
			answers = make([]bool, 3)
		}
		for i := range answers {
			answers[i] = ok
		}
		emit(answers)
	}()
	return m
}

// mirrorReady blocks until the fragment mirror's prefetch has landed
// and returns it, surfacing a prefetch failure at the first question
// that needs the mirrored answer set. Callers must hold a non-nil
// p.mirror.
func (p *pLearner) mirrorReady() (*mirror, error) {
	m := p.mirror
	select {
	case <-m.ready:
	case <-p.ctx.Done():
		return nil, p.ctx.Err()
	}
	if m.err != nil {
		return nil, fmt.Errorf("core: fragment %s: prefetch: %w", p.frag.Var, m.err)
	}
	return m, nil
}

// orderBy serves the fragment's OrderBy keys: from the prefetched stash
// under the mirrored protocol, else over the wire. The OB charge stays
// with the caller, exactly as serially.
func (e *Engine) orderBy(ctx context.Context, frag FragmentRef) ([]xq.SortKey, error) {
	e.mirMu.Lock()
	vs := e.stash[frag.Var]
	e.mirMu.Unlock()
	if vs == nil {
		return e.Teacher.OrderBy(ctx, frag)
	}
	select {
	case <-vs.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if vs.err != nil {
		return nil, vs.err
	}
	e.countMirrorAnswer()
	return vs.orders, nil
}

// countMirrorAnswer charges one locally answered dialogue question.
// Mirror answers are only produced on the learn-loop side (never from
// prefetch goroutines), so the counter needs no lock; the helper exists
// to keep that invariant in one place.
func (e *Engine) countMirrorAnswer() { e.spec.MirrorAnswers++ }

// askMember answers an asked membership query about the representative
// node: from the fragment mirror when one exists, else over the wire.
// The MQ charge stays with the caller either way.
func (p *pLearner) askMember(rep *xmldoc.Node) (bool, error) {
	if p.mirror != nil {
		m, err := p.mirrorReady()
		if err != nil {
			return false, err
		}
		p.eng.countMirrorAnswer()
		return m.in[rep.ID], nil
	}
	return p.eng.Teacher.Member(p.ctx, p.frag, p.pinCtx, rep)
}

// askEquivalent answers an equivalence query on the hypothesis extent:
// from the fragment mirror (diffing the mirrored truth and replaying
// the teacher's counterexample policy — PickCounterexample is shared
// with the teacher, so the chosen node is bit-identical), else over the
// wire.
func (p *pLearner) askEquivalent(hyp []*xmldoc.Node) (ce *xmldoc.Node, positive, ok bool, err error) {
	if p.mirror == nil {
		return p.eng.Teacher.Equivalent(p.ctx, p.frag, p.pinCtx, hyp)
	}
	m, err := p.mirrorReady()
	if err != nil {
		return nil, false, false, err
	}
	p.eng.countMirrorAnswer()
	pos, neg := DiffExtents(m.ext, hyp)
	if len(pos) == 0 && len(neg) == 0 {
		return nil, false, true, nil
	}
	ce, positive = PickCounterexample(m.pol, pos, neg)
	return ce, positive, false, nil
}

// conditionBox serves a Condition Box request: from the prefetched
// stash under the mirrored protocol — preserving the teacher's
// serve-once-per-variable semantics at the engine — else over the wire.
func (p *pLearner) conditionBox(ce *xmldoc.Node) ([]BoxEntry, error) {
	e := p.eng
	if p.mirror == nil {
		return e.Teacher.ConditionBox(p.ctx, p.frag, ce)
	}
	e.mirMu.Lock()
	vs := e.stash[p.frag.Var]
	e.mirMu.Unlock()
	if vs == nil {
		return e.Teacher.ConditionBox(p.ctx, p.frag, ce)
	}
	select {
	case <-vs.ready:
	case <-p.ctx.Done():
		return nil, p.ctx.Err()
	}
	if vs.err != nil {
		return nil, vs.err
	}
	e.mirMu.Lock()
	used := e.boxUsed[p.frag.Var]
	e.boxUsed[p.frag.Var] = true
	e.mirMu.Unlock()
	if used {
		return nil, nil
	}
	e.countMirrorAnswer()
	return vs.boxes, nil
}
