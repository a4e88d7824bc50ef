package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// faultTeacher is a BatchTeacher that answers as the wrapped simulated
// teacher except where a test injects a fault into one of the three
// prefetch calls. inFlight counts the prefetch calls that have entered
// and not yet returned.
type faultTeacher struct {
	*teacher.Sim
	eqFull, box, order error
	// block makes EquivalentFull cancel the session (cancel) and then
	// block until its context is done; it returns a little after that,
	// so a Learn that did not wait for its prefetches would return first.
	block    bool
	cancel   context.CancelFunc
	inFlight atomic.Int32
}

func (f *faultTeacher) EquivalentFull(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) ([]*xmldoc.Node, []*xmldoc.Node, core.CEPolicy, error) {
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	if f.block {
		f.cancel()
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		return nil, nil, 0, ctx.Err()
	}
	if f.eqFull != nil {
		return nil, nil, 0, f.eqFull
	}
	return f.Sim.EquivalentFull(ctx, frag, pin, hyp)
}

func (f *faultTeacher) ConditionBox(ctx context.Context, frag core.FragmentRef, ce *xmldoc.Node) ([]core.BoxEntry, error) {
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	if f.box != nil {
		return nil, f.box
	}
	return f.Sim.ConditionBox(ctx, frag, ce)
}

func (f *faultTeacher) OrderBy(ctx context.Context, frag core.FragmentRef) ([]xq.SortKey, error) {
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	if f.order != nil {
		return nil, f.order
	}
	return f.Sim.OrderBy(ctx, frag)
}

// TestPrefetchFailureIsTyped injects faults into the batched protocol's
// one remaining seam, the per-fragment prefetch. A prefetch call that
// fails surfaces from Learn as an error matching its sentinel; a
// prefetch that blocks until the session is canceled makes Learn fail
// with context.Canceled, and Learn returns only after every prefetch
// call has returned.
func TestPrefetchFailureIsTyped(t *testing.T) {
	sentinel := errors.New("teacher walked away")
	opts := core.DefaultOptions()
	opts.Batched = true
	for name, inject := range map[string]func(*faultTeacher){
		"EquivalentFull": func(f *faultTeacher) { f.eqFull = sentinel },
		"ConditionBox":   func(f *faultTeacher) { f.box = sentinel },
		"OrderBy":        func(f *faultTeacher) { f.order = sentinel },
	} {
		t.Run(name, func(t *testing.T) {
			doc, sim, spec := runningExampleTask(teacher.BestCase)
			ft := &faultTeacher{Sim: sim}
			inject(ft)
			_, _, err := core.NewEngine(doc, ft, opts).Learn(context.Background(), spec)
			if !errors.Is(err, sentinel) {
				t.Fatalf("Learn err = %v, want %v", err, sentinel)
			}
			if n := ft.inFlight.Load(); n != 0 {
				t.Errorf("Learn returned with %d prefetch calls in flight", n)
			}
		})
	}
	t.Run("canceled", func(t *testing.T) {
		doc, sim, spec := runningExampleTask(teacher.BestCase)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ft := &faultTeacher{Sim: sim, block: true, cancel: cancel}
		_, _, err := core.NewEngine(doc, ft, opts).Learn(ctx, spec)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Learn err = %v, want %v", err, context.Canceled)
		}
		if n := ft.inFlight.Load(); n != 0 {
			t.Errorf("Learn returned with %d prefetch calls in flight", n)
		}
	})
}
