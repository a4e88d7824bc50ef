package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/dtd"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
)

// TestR1FiltersUnderSpeculation: a metadata R1 filter is stepped per
// trie node, memoized on the learner's goroutine as it extends live
// nodes, while under the batched protocol the batch goroutine
// answering a wave and the learner's goroutine offering the same wave
// to the Speculator both read the memoized states. Under -race this
// pins that no filter state is written while a batch is in flight. With R1 backed by a DTD and by a DataGuide, the
// batched run must give the serial run's tree and per-fragment
// counters, and must actually have speculated.
func TestR1FiltersUnderSpeculation(t *testing.T) {
	for name, filter := range map[string]func(*core.Options){
		"dtd":       func(o *core.Options) { o.R1Filter = dtd.MustParse(sourceDTD) },
		"dataguide": func(o *core.Options) { o.R1Filter = dataguide.Build(xmldoc.MustParse(sourceXML)) },
	} {
		t.Run(name, func(t *testing.T) {
			opts := core.DefaultOptions()
			filter(&opts)
			serialTree, serialStats, _, _ := runningExample(t, opts, teacher.BestCase)
			opts.Batched = true
			batchTree, batchStats, _, _ := runningExample(t, opts, teacher.BestCase)
			if got, want := batchTree.String(), serialTree.String(); got != want {
				t.Errorf("learned tree diverged\nbatched:\n%s\nserial:\n%s", got, want)
			}
			if got, want := fmt.Sprintf("%+v", batchStats.Fragments), fmt.Sprintf("%+v", serialStats.Fragments); got != want {
				t.Errorf("fragment stats diverged\nbatched: %s\nserial:  %s", got, want)
			}
			if serialStats.Totals().ReducedR1 == 0 {
				t.Errorf("the %s filter reduced nothing", name)
			}
			if spec := batchStats.Speculation; spec.Prefetches == 0 || spec.Kept+spec.Discarded == 0 {
				t.Errorf("batched run did not speculate: %+v", spec)
			}
		})
	}
}
