package artifacts

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Bundle groups the immutable artifacts every session learning against
// one spec shares: the canonical parsed document, its evaluator index,
// the canonical ground-truth tree, and the cross-session memo of the
// teacher's pinned extents. All four are safe for concurrent readers;
// Extents is internally synchronized and is the only field with
// interior mutability.
//
// Sharing discipline: sessions must use Doc (not a re-parse) so node
// identities agree, and teachers sharing Extents must evaluate Truth
// (the same tree pointer) because the memo is keyed by query-node
// identity.
type Bundle struct {
	Doc     *xmldoc.Document
	Index   *xq.Index
	Truth   *xq.Tree
	Extents *xq.SharedExtents
	// Plan is the compiled plan set for Truth over Doc — bundles are
	// immutable and content-addressed, so every session sharing the
	// bundle reuses one compilation (adopted via xq.Evaluator.AdoptPlan;
	// sound for the same reason Extents sharing is: the bundle's tree is
	// never mutated).
	Plan *xq.TreePlan
	// Graph is the default-config data graph over Doc, resolved through
	// GraphFor: one per document instance, so every bundle over that
	// document points at the same graph and its value buckets are built
	// once. Sessions adopt it via core.WithSharedGraph; engines running
	// with non-default bounds reuse its buckets under their own config.
	Graph *datagraph.Graph
	// Syms is the learner symbol table pre-seeded with Doc's alphabet —
	// concurrency-safe and append-only, so every session sharing the
	// bundle (adopted via core.WithSharedSymbols) resolves the
	// document's labels against one intern instead of re-interning them
	// per fragment learner.
	Syms *angluin.SymbolTable
	// Hash is the store key the bundle was published under.
	Hash string
}

// SpecKey derives the content hash for a wire-level session spec: the
// verbatim source XML, target DTD, and ground-truth query texts,
// length-prefixed so no concatenation of fields collides with another
// split of the same bytes.
func SpecKey(sourceXML, targetDTD, truthQuery string) string {
	h := sha256.New()
	for _, part := range []string{"spec", sourceXML, targetDTD, truthQuery} {
		fmt.Fprintf(h, "%d\x00", len(part))
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScenarioKey derives the store key for an embedded benchmark scenario,
// whose artifacts are identified by the scenario ID rather than by
// content (the embedded sources are fixed at compile time).
func ScenarioKey(id string) string {
	sum := sha256.Sum256([]byte("scenario\x00" + id))
	return hex.EncodeToString(sum[:])
}

// Bundle resolves the artifact bundle stored under key, building the
// document and ground-truth tree with the given constructors on a miss.
// The index and data graph are resolved through IndexFor and GraphFor,
// so bundles whose constructors return the same document instance (as
// the embedded benchmark suites do) share one index build and one
// value-bucket build across distinct keys.
func (s *Store) Bundle(ctx context.Context, key string, doc func() (*xmldoc.Document, error), truth func() (*xq.Tree, error)) (*Bundle, error) {
	compiled := false
	v, err := s.Get(ctx, key, func(ctx context.Context) (any, int64, error) {
		d, err := doc()
		if err != nil {
			return nil, 0, fmt.Errorf("parse document: %w", err)
		}
		t, err := truth()
		if err != nil {
			return nil, 0, fmt.Errorf("parse truth query: %w", err)
		}
		ix := s.IndexFor(d)
		plan := xq.NewTreePlan(ix, t)
		compiled = true
		b := &Bundle{
			Doc:     d,
			Index:   ix,
			Truth:   t,
			Extents: xq.NewSharedExtents(),
			Plan:    plan,
			Graph:   s.GraphFor(d),
			Syms:    angluin.NewSymbolTable(d.Alphabet()...),
			Hash:    key,
		}
		return b, approxBundleBytes(d) + int64(plan.ApproxBytes()), nil
	})
	if err != nil {
		return nil, err
	}
	// Counted like IndexFor: a resolution that compiled is a miss, one
	// that reused the published bundle's plan (and its symbol table) is
	// a hit.
	if compiled {
		s.planMisses.Add(1)
		s.symMisses.Add(1)
	} else {
		s.planHits.Add(1)
		s.symHits.Add(1)
	}
	b, ok := v.(*Bundle)
	if !ok {
		return nil, fmt.Errorf("artifacts: key %.12s… holds %T, not a bundle", key, v)
	}
	return b, nil
}

// docSlot is the once-per-document slot behind IndexFor and GraphFor:
// the facts that depend on the document alone, whatever the scenario.
type docSlot struct {
	ixOnce sync.Once
	ix     *xq.Index

	graphOnce sync.Once
	graph     *datagraph.Graph
}

// slot returns doc's slot, creating it on first sight.
func (s *Store) slot(doc *xmldoc.Document) *docSlot {
	v, _ := s.docs.LoadOrStore(doc, &docSlot{})
	slot, ok := v.(*docSlot)
	if !ok {
		// Unreachable: the map only ever stores *docSlot values.
		return &docSlot{}
	}
	return slot
}

// IndexFor returns the store's canonical evaluator index for doc,
// building it at most once per document instance. Keying by identity is
// sound because documents are immutable after parsing and the benchmark
// suites share one instance across their scenarios; distinct parses of
// equal bytes get distinct indexes, which costs speed, never
// correctness.
func (s *Store) IndexFor(doc *xmldoc.Document) *xq.Index {
	slot := s.slot(doc)
	built := false
	slot.ixOnce.Do(func() {
		slot.ix = xq.NewIndex(doc)
		built = true
	})
	if built {
		s.indexMisses.Add(1)
	} else {
		s.indexHits.Add(1)
	}
	return slot.ix
}

// GraphFor returns the store's canonical default-config data graph for
// doc, its value buckets built from IndexFor(doc)'s columns at most once
// per document instance (keyed like IndexFor). Engines with other graph
// bounds reuse the same buckets through Graph.Buckets.
func (s *Store) GraphFor(doc *xmldoc.Document) *datagraph.Graph {
	slot := s.slot(doc)
	built := false
	slot.graphOnce.Do(func() {
		slot.graph = datagraph.New(datagraph.NewBuckets(s.IndexFor(doc)), datagraph.DefaultConfig())
		built = true
	})
	if built {
		s.graphMisses.Add(1)
	} else {
		s.graphHits.Add(1)
	}
	return slot.graph
}

// approxBundleBytes estimates a bundle's resident size for the byte
// budget: the dominant terms are the document's nodes and the index's
// per-node clocks and label files. The constant is an engineering
// estimate, not an exact account — the budget is a pressure valve.
func approxBundleBytes(d *xmldoc.Document) int64 {
	const bytesPerNode = 400
	return int64(d.NumNodes()) * bytesPerNode
}
