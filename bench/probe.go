package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// method names one teacher entry point the probe times.
type method int

const (
	mMember method = iota
	mMemberBatch
	mEquivalent
	mEquivalentFull
	mConditionBox
	mOrderBy
	nMethods
)

var methodNames = [nMethods]string{"member", "member_batch", "equivalent", "equivalent_full", "condition_box", "order_by"}

// probe is a core.BatchTeacher over a simulated teacher that times
// every call from outside: per method it counts calls and busy time,
// and across methods it records when the first question arrived and
// the think times — the wait from one answer to the next question, or
// to the result after the last answer. Calls may arrive concurrently
// under the batched protocol; overlapping calls contribute no gap.
type probe struct {
	sim    *teacher.Sim
	origin time.Time
	tr     *sessionTrace

	mu      sync.Mutex
	calls   [nMethods]int
	busy    [nMethods]time.Duration
	first   time.Duration // since origin; -1 until the first call
	lastEnd time.Time
	active  int
	gaps    []float64 // milliseconds
}

// newProbe wraps sim; origin is the session start the first-question
// delay is measured from. tr, when non-nil, receives one span per call.
func newProbe(sim *teacher.Sim, origin time.Time, tr *sessionTrace) *probe {
	return &probe{sim: sim, origin: origin, tr: tr, first: -1}
}

// begin marks a call's start and returns its start time.
func (p *probe) begin() time.Time {
	now := time.Now()
	p.mu.Lock()
	if p.first < 0 {
		p.first = now.Sub(p.origin)
	} else if p.active == 0 && !p.lastEnd.IsZero() {
		p.gaps = append(p.gaps, ms(now.Sub(p.lastEnd)))
	}
	p.active++
	p.mu.Unlock()
	return now
}

// end books a finished call of kind m.
func (p *probe) end(m method, start time.Time) {
	now := time.Now()
	p.mu.Lock()
	p.calls[m]++
	p.busy[m] += now.Sub(start)
	p.active--
	if now.After(p.lastEnd) {
		p.lastEnd = now
	}
	p.mu.Unlock()
	p.tr.span("teacher.", methodNames[m], spanLearn, start, now)
}

func (p *probe) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	t := p.begin()
	defer p.end(mMember, t)
	return p.sim.Member(ctx, frag, pin, n)
}

func (p *probe) MemberBatch(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, nodes []*xmldoc.Node) ([]bool, error) {
	t := p.begin()
	defer p.end(mMemberBatch, t)
	return p.sim.MemberBatch(ctx, frag, pin, nodes)
}

func (p *probe) Equivalent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (*xmldoc.Node, bool, bool, error) {
	t := p.begin()
	defer p.end(mEquivalent, t)
	return p.sim.Equivalent(ctx, frag, pin, hyp)
}

func (p *probe) EquivalentFull(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) ([]*xmldoc.Node, []*xmldoc.Node, core.CEPolicy, error) {
	t := p.begin()
	defer p.end(mEquivalentFull, t)
	return p.sim.EquivalentFull(ctx, frag, pin, hyp)
}

func (p *probe) ConditionBox(ctx context.Context, frag core.FragmentRef, ce *xmldoc.Node) ([]core.BoxEntry, error) {
	t := p.begin()
	defer p.end(mConditionBox, t)
	return p.sim.ConditionBox(ctx, frag, ce)
}

func (p *probe) OrderBy(ctx context.Context, frag core.FragmentRef) ([]xq.SortKey, error) {
	t := p.begin()
	defer p.end(mOrderBy, t)
	return p.sim.OrderBy(ctx, frag)
}

// result returns the counters once the session produced its result at
// end; the wait from the last answer to that result is the final think
// time.
func (p *probe) result(end time.Time) (calls [nMethods]int, busy [nMethods]time.Duration, first time.Duration, gaps []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gaps = p.gaps
	if !p.lastEnd.IsZero() {
		gaps = append(gaps, ms(end.Sub(p.lastEnd)))
	}
	return p.calls, p.busy, p.first, gaps
}

var _ core.BatchTeacher = (*probe)(nil)
