// Package artifacts is a concurrency-safe store for the immutable
// artifacts a learning session needs before its first interaction: the
// parsed source document, its evaluator index and data graph, the parsed
// ground-truth query, and the teacher's pinned-extent memo. Sessions created from
// the same spec — identical source, target schema, and truth query —
// resolve to the same store entry, so N concurrent sessions pay for one
// parse, one index build, and one set of truth extents instead of N.
//
// The store is content-hash keyed (see SpecKey and ScenarioKey) and
// deduplicates concurrent builds: the first Get for a key runs the
// builder, late arrivals block on the same in-flight result rather than
// building again. Published values are immutable and never touched by
// the store after insertion; eviction merely drops the store's
// reference, so sessions already holding an artifact are unaffected.
package artifacts

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// DefaultBudget is the default byte budget for a Store: generous enough
// that the benchmark suites never evict, small enough that a daemon
// fed many distinct specs stays bounded.
const DefaultBudget = 256 << 20

// Store is a bounded, content-hash-keyed cache of immutable artifacts
// with duplicate-build suppression. The zero value is not usable; call
// NewStore.
type Store struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	// lru orders published entries, most recently used first. In-flight
	// entries live only in the map and are never evicted.
	lru   *list.List
	bytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	// docs memoizes one evaluator index and one data graph per live
	// document, keyed by identity: benchmark suites hand the same
	// immutable instance to every scenario, so bundles built for
	// different keys still share one index build and one value-bucket
	// build. Evicting a document's last bundle drops its slot (see
	// dropDocLocked), so the slots stay within the byte budget's reach.
	docs        sync.Map // *xmldoc.Document → *docSlot, see IndexFor/GraphFor
	indexHits   atomic.Uint64
	indexMisses atomic.Uint64
	graphHits   atomic.Uint64
	graphMisses atomic.Uint64

	// planHits/planMisses count bundle resolutions by whether the
	// compiled truth plan was reused or built (see Store.Bundle).
	planHits   atomic.Uint64
	planMisses atomic.Uint64

	// symHits/symMisses count bundle resolutions by whether the shared
	// learner symbol table was reused or freshly seeded (see
	// Store.Bundle).
	symHits   atomic.Uint64
	symMisses atomic.Uint64
}

// entry is one keyed slot. ready is closed when the build finishes;
// val/size/err are written exactly once, before the close, and are
// read-only afterwards.
type entry struct {
	key   string
	val   any
	size  int64
	err   error
	ready chan struct{}
	elem  *list.Element
}

// NewStore builds an empty store evicting least-recently-used entries
// once the published sizes exceed maxBytes (<= 0 selects
// DefaultBudget).
func NewStore(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultBudget
	}
	return &Store{
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
	}
}

// Get returns the artifact stored under key, building it with build if
// absent. Concurrent Gets for one key run build once: the first caller
// builds, the rest block until the result is published and then share
// it. A failed build is not cached — the error goes to every caller
// waiting on that attempt, and the next Get retries. The size reported
// by build charges the entry against the store's byte budget.
func (s *Store) Get(ctx context.Context, key string, build func(ctx context.Context) (val any, size int64, err error)) (any, error) {
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			select {
			case <-e.ready:
				// Published. Failed builds are removed from the map
				// before ready closes, so a ready entry found in the
				// map always carries a value.
				s.hits.Add(1)
				s.lru.MoveToFront(e.elem)
				v := e.val
				s.mu.Unlock()
				return v, nil
			default:
			}
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("artifacts: waiting for %.12s…: %w", key, ctx.Err())
			case <-e.ready:
			}
			if e.err != nil {
				return nil, e.err
			}
			// Loop rather than returning e.val directly so the hit is
			// counted and the entry refreshed in the LRU exactly like a
			// plain cache hit.
			continue
		}
		s.misses.Add(1)
		e := &entry{key: key, ready: make(chan struct{})}
		s.entries[key] = e
		s.mu.Unlock()

		val, size, err := build(ctx)

		s.mu.Lock()
		e.val, e.size, e.err = val, size, err
		if err != nil {
			e.err = fmt.Errorf("artifacts: build %.12s…: %w", key, err)
			delete(s.entries, key)
		} else {
			e.elem = s.lru.PushFront(e)
			s.bytes += size
			s.evictLocked()
		}
		s.mu.Unlock()
		close(e.ready)
		return val, e.err
	}
}

// evictLocked drops least-recently-used published entries until the
// byte budget holds again, always keeping the newest entry so a single
// over-budget artifact still caches.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		e, ok := back.Value.(*entry)
		if !ok {
			return
		}
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= e.size
		s.evictions.Add(1)
		if b, ok := e.val.(*Bundle); ok {
			s.dropDocLocked(b.Doc)
		}
	}
}

// dropDocLocked forgets doc's per-document slot once no published
// bundle is over it, so the index and data graph of a document whose
// bundles were all evicted leave the store with them. A build in flight
// over the same document may then build them again: that costs speed,
// never correctness.
func (s *Store) dropDocLocked(doc *xmldoc.Document) {
	for _, e := range s.entries {
		if b, ok := e.val.(*Bundle); ok && b.Doc == doc {
			return
		}
	}
	s.docs.Delete(doc)
}

// Stats is a point-in-time snapshot of the store's counters, in the
// shape of the evaluator cache statistics (see xq.CacheStats).
type Stats struct {
	// Lookups counts Get calls: a hit shared a published artifact
	// (including late arrivals that waited on an in-flight build), a
	// miss ran the builder.
	Lookups xq.CacheCounter
	// Indexes counts IndexFor calls the same way.
	Indexes xq.CacheCounter
	// Graphs counts GraphFor calls the same way: a miss built the
	// document's value buckets.
	Graphs xq.CacheCounter
	// Plans counts bundle resolutions by compiled-plan reuse: a miss
	// compiled the truth tree's plan set, a hit adopted a published one.
	Plans xq.CacheCounter
	// Symtabs counts bundle resolutions by learner symbol-table reuse:
	// a miss seeded a fresh table from the document alphabet, a hit
	// adopted a published one.
	Symtabs xq.CacheCounter
	// Evictions counts entries dropped to enforce the byte budget.
	Evictions uint64
	// Entries and Bytes describe the published residents.
	Entries int
	Bytes   int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.lru.Len(), s.bytes
	s.mu.Unlock()
	return Stats{
		Lookups:   xq.CacheCounter{Hits: s.hits.Load(), Misses: s.misses.Load()},
		Indexes:   xq.CacheCounter{Hits: s.indexHits.Load(), Misses: s.indexMisses.Load()},
		Graphs:    xq.CacheCounter{Hits: s.graphHits.Load(), Misses: s.graphMisses.Load()},
		Plans:     xq.CacheCounter{Hits: s.planHits.Load(), Misses: s.planMisses.Load()},
		Symtabs:   xq.CacheCounter{Hits: s.symHits.Load(), Misses: s.symMisses.Load()},
		Evictions: s.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
