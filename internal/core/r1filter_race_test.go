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

// TestR1FiltersBatched: a metadata R1 filter is stepped per trie node
// and memoized as the learner extends live nodes, while under the
// batched protocol the fragment mirror answers the waves and the
// prefetch goroutines run beside the learner. With R1 backed by a DTD
// and by a DataGuide, the batched run must give the serial run's tree
// and per-fragment counters, and must actually have answered from the
// mirror. CI runs it under -race.
func TestR1FiltersBatched(t *testing.T) {
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
			if spec := batchStats.Speculation; spec.Prefetches == 0 || spec.MirrorAnswers == 0 {
				t.Errorf("batched run did not answer from the mirror: %+v", spec)
			}
		})
	}
}
