package xq_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/xmark"
	"repro/internal/xq"
)

// countdownCtx is a context whose Err turns context.Canceled after n
// calls, so a test can cancel in the middle of an enumeration.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestExtentCanceled: a canceled context aborts Extent on a 4x XMark
// instance, both before the enumeration starts and in the middle of a
// nested one, with an error errors.Is matches to context.Canceled; the
// evaluator answers correctly afterwards.
func TestExtentCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("4x instance")
	}
	doc := largeXMark(100)
	// Q10's truth tree nests a joined level under each person, so its
	// innermost extent enters a level once per outer binding.
	var tree *xq.Tree
	for _, s := range xmark.Scenarios() {
		if s.ID == "XMark-Q10" {
			tree = s.Truth()
		}
	}
	if tree == nil {
		t.Fatal("no XMark-Q10 scenario")
	}
	var n *xq.Node
	for _, m := range tree.Nodes() {
		if m.Var != "" && len(m.BindingChain()) >= 2 {
			n = m
		}
	}
	if n == nil {
		t.Fatal("no nested variable in the Q10 truth tree")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := xq.NewEvaluator(doc).Extent(canceled, tree, n, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extent under a canceled context: err = %v, want context.Canceled", err)
	}
	ev := xq.NewEvaluator(doc)
	mid := &countdownCtx{Context: context.Background(), n: 5}
	if _, err := ev.Extent(mid, tree, n, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extent canceled mid-enumeration: err = %v, want context.Canceled", err)
	}
	want, err := xq.NewEvaluator(doc).Extent(context.Background(), tree, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Extent(context.Background(), tree, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !sameNodes(got, want) {
		t.Fatalf("after the aborted run: %d nodes, want %d (non-empty)", len(got), len(want))
	}
}
