package artifacts_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmark"
)

// TestBundlesShareGraphPerDocument resolves the 19 XMark bundles, which
// share one document instance, and requires one index and one data
// graph among them: a single bucket build for the store.
func TestBundlesShareGraphPerDocument(t *testing.T) {
	ctx := context.Background()
	store := artifacts.NewStore(0)
	scs := xmark.Scenarios()
	var first *artifacts.Bundle
	for _, s := range scs {
		b, err := scenario.ResolveBundle(ctx, store, s)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
			continue
		}
		if b.Graph != first.Graph || b.Index != first.Index {
			t.Fatalf("%s: bundle over the shared document has its own graph or index", s.ID)
		}
	}
	if first.Graph.Doc != first.Doc || first.Graph.Cfg != datagraph.DefaultConfig() {
		t.Fatal("bundle graph is not the default-config graph over the bundle's document")
	}
	want := uint64(len(scs) - 1)
	if st := store.Stats(); st.Graphs.Misses != 1 || st.Graphs.Hits != want {
		t.Fatalf("graph counters = %+v, want 1 miss / %d hits", st.Graphs, want)
	}
}

// TestConcurrentBundlesBuildGraphOnce resolves the XMark bundles from
// concurrent goroutines: the document's index and value buckets are
// built exactly once, and every bundle points at the one graph.
func TestConcurrentBundlesBuildGraphOnce(t *testing.T) {
	ctx := context.Background()
	store := artifacts.NewStore(0)
	scs := xmark.Scenarios()
	graphs := make([]*datagraph.Graph, len(scs))
	errs := make([]error, len(scs))
	var wg sync.WaitGroup
	for i, s := range scs {
		wg.Add(1)
		go func(i int, s *scenario.Scenario) {
			defer wg.Done()
			b, err := scenario.ResolveBundle(ctx, store, s)
			if err != nil {
				errs[i] = err
				return
			}
			graphs[i] = b.Graph
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", scs[i].ID, err)
		}
		if graphs[i] != graphs[0] {
			t.Fatalf("%s: a second graph was published for the shared document", scs[i].ID)
		}
	}
	st := store.Stats()
	if st.Graphs.Misses != 1 || st.Indexes.Misses != 1 {
		t.Fatalf("graph counters %+v, index counters %+v: want one build each", st.Graphs, st.Indexes)
	}
}

// TestNonDefaultGraphConfigMatchesFreshGraph learns every XMark
// scenario under non-default graph bounds twice: through a store, where
// the engine reuses the bundle graph's buckets under its own config,
// and on the plain path, where it builds its own. The learned trees and
// every interaction count must agree.
func TestNonDefaultGraphConfigMatchesFreshGraph(t *testing.T) {
	ctx := context.Background()
	store := artifacts.NewStore(0)
	// A bucket cap of 2 changes what several scenarios learn, so the
	// comparison runs where the bounds matter.
	cfg := datagraph.DefaultConfig()
	cfg.MaxBucket = 2
	changed := 0
	for _, s := range xmark.Scenarios() {
		// Tight bounds can leave a fragment unlearnable; the two paths
		// must then fail alike.
		shared, serr := scenario.RunIn(ctx, store, s, teacher.BestCase, core.WithGraphConfig(cfg))
		fresh, ferr := scenario.Run(ctx, s, teacher.BestCase, core.WithGraphConfig(cfg))
		if serr != nil || ferr != nil {
			if serr == nil || ferr == nil || serr.Error() != ferr.Error() {
				t.Fatalf("%s: shared error %v, fresh error %v", s.ID, serr, ferr)
			}
			changed++
			continue
		}
		if shared.Tree.String() != fresh.Tree.String() || shared.Verified != fresh.Verified {
			t.Fatalf("%s: shared buckets learned\n%s (verified %v)\nfresh graph learned\n%s (verified %v)",
				s.ID, shared.Tree, shared.Verified, fresh.Tree, fresh.Verified)
		}
		if shared.Stats.DnD != fresh.Stats.DnD || !reflect.DeepEqual(shared.Stats.Fragments, fresh.Stats.Fragments) {
			t.Fatalf("%s: counts differ: shared %+v, fresh %+v", s.ID, shared.Stats.Fragments, fresh.Stats.Fragments)
		}
		def, err := scenario.RunIn(ctx, store, s, teacher.BestCase)
		if err != nil {
			t.Fatalf("%s default: %v", s.ID, err)
		}
		if def.Tree.String() != shared.Tree.String() || def.Stats.Totals() != shared.Stats.Totals() {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the non-default bounds changed no scenario's outcome; the comparison shows nothing")
	}
	if st := store.Stats(); st.Graphs.Misses != 1 {
		t.Fatalf("graph counters = %+v, want one bucket build", st.Graphs)
	}
}
