package datagraph_test

import (
	"fmt"
	"testing"

	"repro/internal/datagraph"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
)

// TestBucketsMatchReferenceInstances runs the differential check of the
// column-built buckets over every benchmark instance: the XMark, XMP
// and Use Case R documents, and the four 4× XMark instances of the
// cold-large workload.
func TestBucketsMatchReferenceInstances(t *testing.T) {
	type instance struct {
		name string
		doc  func() *xmldoc.Document
	}
	docs := []instance{
		{"xmark", func() *xmldoc.Document { return xmark.Generate(xmark.DefaultConfig()) }},
		{"xmp", xmp.Doc},
		{"ucr", ucr.Doc},
	}
	for _, seed := range []int64{100, 200, 400, 500} {
		docs = append(docs, instance{fmt.Sprintf("xmark-4x-seed%d", seed), func() *xmldoc.Document {
			cfg := xmark.DefaultConfig()
			cfg.Seed = seed
			cfg.Categories *= 4
			cfg.ItemsPerRegion *= 4
			cfg.People *= 4
			cfg.OpenAuctions *= 4
			cfg.ClosedAuctions *= 4
			return xmark.Generate(cfg)
		}})
	}
	for _, in := range docs {
		t.Run(in.name, func(t *testing.T) {
			datagraph.CheckBucketsMatchReference(t, in.doc())
		})
	}
}
