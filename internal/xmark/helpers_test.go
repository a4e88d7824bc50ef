package xmark

import (
	"fmt"
	"testing"

	"repro/internal/xmldoc"
)

// TestIDSelectorsMatchWalk: on the paper instance and the four 4x
// cold-large instances (generator seeds 100, 200, 400 and 500), the ID
// selectors, which scan the children of the elements the generator
// files each label under, return for every person, open auction,
// category and item ID the node FirstWithLabel's pre-order walk finds;
// and an ID the document lacks selects nothing.
func TestIDSelectorsMatchWalk(t *testing.T) {
	docs := map[string]*xmldoc.Document{"paper": Scenarios()[0].Doc()}
	for _, seed := range []int64{100, 200, 400, 500} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Categories *= 4
		cfg.ItemsPerRegion *= 4
		cfg.People *= 4
		cfg.OpenAuctions *= 4
		cfg.ClosedAuctions *= 4
		docs[fmt.Sprintf("4x seed %d", seed)] = Generate(cfg)
	}
	for name, doc := range docs {
		for _, c := range []struct {
			label string
			sel   func(*xmldoc.Document, string) *xmldoc.Node
		}{{"person", personByID}, {"open_auction", auctionByID}, {"category", categoryByID}, {"item", itemByID}} {
			nodes := doc.NodesWithLabel(c.label)
			if len(nodes) == 0 {
				t.Fatalf("%s: no %s", name, c.label)
			}
			for _, n := range nodes {
				id, ok := n.Attr("id")
				if !ok {
					t.Fatalf("%s: %s without id", name, c.label)
				}
				want := doc.FirstWithLabel(c.label, func(m *xmldoc.Node) bool {
					v, _ := m.Attr("id")
					return v == id
				})
				if got := c.sel(doc, id); got != want || got == nil {
					t.Errorf("%s: %s %q selects %v, the walk %v", name, c.label, id, got, want)
				}
			}
			if got := c.sel(doc, "nosuch"); got != nil {
				t.Errorf("%s: %s %q selects a node", name, c.label, "nosuch")
			}
		}
	}
}
