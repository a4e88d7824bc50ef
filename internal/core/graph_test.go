package core

import (
	"testing"

	"repro/internal/datagraph"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// TestEngineReusesSharedBuckets pins newEngine's graph branch: a shared
// graph over the source is adopted under an equal config and lends its
// buckets under any other; a graph over another document is ignored.
func TestEngineReusesSharedBuckets(t *testing.T) {
	doc := xmldoc.MustParse(`<a><b id="1">x</b><c ref="1"/></a>`)
	shared := datagraph.New(datagraph.NewBuckets(xq.NewIndex(doc)), datagraph.DefaultConfig())
	other := datagraph.DefaultConfig()
	other.MaxBucket = 8

	same := newEngine(doc, nil, Options{Graph: datagraph.DefaultConfig(), SharedGraph: shared})
	if same.graph != shared {
		t.Fatal("equal config: the shared graph must be adopted as is")
	}
	lent := newEngine(doc, nil, Options{Graph: other, SharedGraph: shared})
	if lent.graph == shared || lent.graph.Cfg != other || lent.graph.Buckets() != shared.Buckets() {
		t.Fatal("other config: the engine must reuse the shared buckets under its own config")
	}
	foreign := xmldoc.MustParse(`<a><b id="1">x</b><c ref="1"/></a>`)
	own := newEngine(foreign, nil, Options{Graph: other, SharedGraph: shared})
	if own.graph.Doc != foreign || own.graph.Buckets() == shared.Buckets() {
		t.Fatal("a graph over another document must be ignored")
	}
	if own.graph.VEdgeCount() != shared.VEdgeCount() {
		t.Fatalf("own buckets: %d v-edges, shared %d", own.graph.VEdgeCount(), shared.VEdgeCount())
	}
}
