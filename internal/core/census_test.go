package core_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/angluin"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmp"
)

// TestTrieNodesPerFragment pins the size of L*'s table on the 38 paper
// scenarios under the default options: rule R1 makes most one-symbol
// extensions dead, and a dead extension shares the sink row instead of
// taking a trie node (angluin.Deducer), so a fragment's Words ends
// with at most 150 nodes on average. With a node per dead extension it
// held about 430.
func TestTrieNodesPerFragment(t *testing.T) {
	var mu sync.Mutex
	nodes, frags := 0, 0
	defer core.SetUnbindHook(func(w *angluin.Words) {
		mu.Lock()
		nodes += w.Len()
		frags++
		mu.Unlock()
	})()
	scns := append(xmark.Scenarios(), xmp.Scenarios()...)
	scns = append(scns, ucr.Scenarios()...)
	if len(scns) != 38 {
		t.Fatalf("%d scenarios, want the paper's 38", len(scns))
	}
	for _, s := range scns {
		if _, err := scenario.Run(context.Background(), s, teacher.BestCase); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
	}
	if frags == 0 {
		t.Fatal("no fragment was learned")
	}
	if per := float64(nodes) / float64(frags); per > 150 {
		t.Fatalf("%d Words nodes over %d fragments (%.1f per fragment), want at most 150", nodes, frags, per)
	}
}
