package artifacts

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func TestGetCachesAndCounts(t *testing.T) {
	s := NewStore(1 << 20)
	ctx := testCtx(t)
	builds := 0
	build := func(context.Context) (any, int64, error) {
		builds++
		return "value", 10, nil
	}
	for i := 0; i < 3; i++ {
		v, err := s.Get(ctx, "k", build)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if v != "value" {
			t.Fatalf("Get %d: got %v", i, v)
		}
	}
	if builds != 1 {
		t.Fatalf("builder ran %d times, want 1", builds)
	}
	st := s.Stats()
	if st.Lookups.Hits != 2 || st.Lookups.Misses != 1 {
		t.Fatalf("lookups = %+v, want 2 hits / 1 miss", st.Lookups)
	}
	if st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("residency = %d entries / %d bytes, want 1 / 10", st.Entries, st.Bytes)
	}
}

func TestGetSingleflight(t *testing.T) {
	s := NewStore(1 << 20)
	ctx := testCtx(t)
	const workers = 16
	var builds atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Get(ctx, "k", func(context.Context) (any, int64, error) {
				builds.Add(1)
				<-gate // hold every late arrival on the in-flight build
				return "shared", 1, nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times under contention, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("worker %d got %v, want the shared value", i, v)
		}
	}
}

func TestGetErrorNotCached(t *testing.T) {
	s := NewStore(1 << 20)
	ctx := testCtx(t)
	boom := errors.New("boom")
	calls := 0
	build := func(context.Context) (any, int64, error) {
		calls++
		if calls == 1 {
			return nil, 0, boom
		}
		return "ok", 1, nil
	}
	if _, err := s.Get(ctx, "k", build); !errors.Is(err, boom) {
		t.Fatalf("first Get error = %v, want wrapped boom", err)
	}
	v, err := s.Get(ctx, "k", build)
	if err != nil || v != "ok" {
		t.Fatalf("retry Get = %v, %v; want ok", v, err)
	}
	if calls != 2 {
		t.Fatalf("builder ran %d times, want 2 (errors must not cache)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewStore(30)
	ctx := testCtx(t)
	put := func(key string) {
		t.Helper()
		if _, err := s.Get(ctx, key, func(context.Context) (any, int64, error) {
			return key, 10, nil
		}); err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
	}
	put("a")
	put("b")
	put("c")
	put("a") // refresh a so b is now least recently used
	put("d") // over budget: evicts b
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("after eviction: %+v, want 1 eviction, 3 entries, 30 bytes", st)
	}
	misses := st.Lookups.Misses
	put("a") // must still be resident
	put("b") // must rebuild
	st = s.Stats()
	if st.Lookups.Misses != misses+1 {
		t.Fatalf("misses went %d → %d, want exactly one more (b evicted, a resident)",
			misses, st.Lookups.Misses)
	}
}

func TestOversizedEntryStillCaches(t *testing.T) {
	s := NewStore(5)
	ctx := testCtx(t)
	builds := 0
	for i := 0; i < 2; i++ {
		if _, err := s.Get(ctx, "big", func(context.Context) (any, int64, error) {
			builds++
			return "big", 100, nil
		}); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if builds != 1 {
		t.Fatalf("oversized entry rebuilt %d times, want 1 (newest entry is never evicted)", builds)
	}
}

func TestGetCanceledWaiter(t *testing.T) {
	s := NewStore(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inBuild := make(chan struct{})
	gate := make(chan struct{})
	go func() {
		_, _ = s.Get(context.Background(), "k", func(context.Context) (any, int64, error) {
			close(inBuild)
			<-gate
			return "v", 1, nil
		})
	}()
	<-inBuild
	cancel()
	_, err := s.Get(ctx, "k", func(context.Context) (any, int64, error) {
		t.Error("waiter must not start a second build")
		return nil, 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	close(gate)
}

func TestIndexForSharesPerDocument(t *testing.T) {
	s := NewStore(1 << 20)
	doc := xmldoc.MustParse("<a><b/><b/></a>")
	other := xmldoc.MustParse("<a><b/><b/></a>")
	ix := s.IndexFor(doc)
	if ix == nil || s.IndexFor(doc) != ix {
		t.Fatal("IndexFor must return one index per document instance")
	}
	if s.IndexFor(other) == ix {
		t.Fatal("distinct documents must not share an index")
	}
	st := s.Stats()
	if st.Indexes.Hits != 1 || st.Indexes.Misses != 2 {
		t.Fatalf("index counters = %+v, want 1 hit / 2 misses", st.Indexes)
	}
}

func TestBundleSharesIndexAcrossKeys(t *testing.T) {
	s := NewStore(1 << 20)
	ctx := testCtx(t)
	doc := xmldoc.MustParse("<a><b>x</b></a>")
	mk := func(key string) *Bundle {
		t.Helper()
		b, err := s.Bundle(ctx, key,
			func() (*xmldoc.Document, error) { return doc, nil },
			func() (*xq.Tree, error) { return nil, nil })
		if err != nil {
			t.Fatalf("Bundle %s: %v", key, err)
		}
		return b
	}
	b1 := mk(ScenarioKey("one"))
	b2 := mk(ScenarioKey("two"))
	if b1 == b2 {
		t.Fatal("distinct keys must resolve distinct bundles")
	}
	if b1.Index != b2.Index {
		t.Fatal("bundles over one document instance must share its index")
	}
	if b1.Extents == b2.Extents {
		t.Fatal("distinct bundles must not share an extent memo")
	}
	if b1.Hash == b2.Hash || b1.Hash != ScenarioKey("one") {
		t.Fatalf("hashes: %s vs %s", b1.Hash, b2.Hash)
	}
}

func TestSpecKeyNoConcatenationCollision(t *testing.T) {
	if SpecKey("ab", "c", "") == SpecKey("a", "bc", "") {
		t.Fatal("length prefixing must separate field boundaries")
	}
	if SpecKey("x", "y", "z") != SpecKey("x", "y", "z") {
		t.Fatal("SpecKey must be deterministic")
	}
}

func TestGetDistinctKeysBuildConcurrently(t *testing.T) {
	s := NewStore(1 << 20)
	ctx := testCtx(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, err := s.Get(ctx, key, func(context.Context) (any, int64, error) {
				return key, 1, nil
			})
			if err != nil || v != key {
				t.Errorf("Get %s = %v, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.Lookups.Misses != n {
		t.Fatalf("misses = %d, want %d", st.Lookups.Misses, n)
	}
}

// TestEvictionDropsDocumentSlot checks that evicting a document's last
// bundle drops its per-document index and graph, while a document that
// another published bundle still uses keeps them.
func TestEvictionDropsDocumentSlot(t *testing.T) {
	ctx := testCtx(t)
	// A 1-byte budget keeps only the newest bundle.
	s := NewStore(1)
	mk := func(key string, doc *xmldoc.Document) *Bundle {
		t.Helper()
		b, err := s.Bundle(ctx, key,
			func() (*xmldoc.Document, error) { return doc, nil },
			func() (*xq.Tree, error) { return nil, nil })
		if err != nil {
			t.Fatalf("Bundle %s: %v", key, err)
		}
		return b
	}
	shared := xmldoc.MustParse("<a><b>x</b></a>")
	b1 := mk(ScenarioKey("one"), shared)
	mk(ScenarioKey("two"), shared) // evicts "one"; "two" still uses the document
	if s.IndexFor(shared) != b1.Index || s.GraphFor(shared) != b1.Graph {
		t.Fatal("a document with a published bundle must keep its index and graph")
	}
	mk(ScenarioKey("three"), xmldoc.MustParse("<a><b>y</b></a>")) // evicts "two"
	if s.IndexFor(shared) == b1.Index || s.GraphFor(shared) == b1.Graph {
		t.Fatal("evicting a document's last bundle must drop its index and graph")
	}
	if st := s.Stats(); st.Evictions != 2 || st.Indexes.Misses != 3 || st.Graphs.Misses != 3 {
		t.Fatalf("stats = %+v, want 2 evictions and 3 index and graph builds", st)
	}
}
