package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// paperScenarios returns the 38 scenarios of Figure 16 on the paper's
// instances: XMark (19), XMP (11) and Use Case R (8). Each call builds
// fresh instances.
func paperScenarios() []*scenario.Scenario {
	out := xmark.Scenarios()
	out = append(out, xmp.Scenarios()...)
	return append(out, ucr.Scenarios()...)
}

func scenarioIDs(scns []*scenario.Scenario) []string {
	ids := make([]string, len(scns))
	for i, s := range scns {
		ids[i] = s.ID
	}
	return ids
}

// shuffled returns a seeded permutation of items.
func shuffled[T any](rng *rand.Rand, items []T) []T {
	out := append([]T(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runJobs runs fn over items on a fixed set of workers, each taking the
// next item when its previous one is done (a closed loop), and returns
// once every worker has stopped.
func runJobs[T any](ctx context.Context, items []T, workers int, fn func(T)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				fn(items[i])
			}
		}()
	}
	wg.Wait()
}

// job is one in-process session: a scenario and the key its dialogue
// counts are checked under.
type job struct {
	s   *scenario.Scenario
	key string
}

// runSession learns one scenario through the layers' public entry
// points, timing each from outside: the bundle through
// scenario.ResolveBundle, the dialogue through core.Session.Learn with
// the teacher behind a probe, and verification through two
// xq.Evaluator.Result calls, exactly as scenario.Prepared.Learn
// verifies. The session runs the serial protocol with the best-case
// teacher and no teacher latency, like Figure 16.
func runSession(ctx context.Context, store *artifacts.Store, j job, chk *checker, st *sessionTrace) sessionRec {
	defer st.finish()
	rec := sessionRec{key: j.key, first: -1}
	start := time.Now()
	b, err := scenario.ResolveBundle(ctx, store, j.s)
	resolved := time.Now()
	rec.resolve = resolved.Sub(start)
	st.fixed(spanResolve, "resolve", start, resolved)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", j.key, err)
		return rec
	}

	sess, sim, pr := probedSession(j.s, b, start, st)
	tree, stats, err := sess.Learn(ctx, &core.TaskSpec{Target: j.s.Target, Drops: j.s.Drops})
	learned := time.Now()
	rec.learn = learned.Sub(resolved)
	st.fixed(spanLearn, "learn", resolved, learned)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", j.key, err)
		return rec
	}

	verified, err := verify(ctx, b, tree)
	end := time.Now()
	rec.verify = end.Sub(learned)
	rec.total = end.Sub(start)
	st.fixed(spanVerify, "verify", learned, end)
	st.fixed(spanSession, "session", start, end)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", j.key, err)
		return rec
	}

	rec.calls, rec.busy, rec.first, rec.gaps = pr.result(end)
	counts := dialogue(stats)
	rec.questions = counts[0] + counts[1] + counts[2] + counts[3]
	tot := stats.Totals()
	rec.mq, rec.reduced = tot.MQ, tot.ReducedTotal
	rec.spec = stats.Speculation
	rec.cache = sess.Engine().CacheStats().Add(sim.CacheStats())
	rec.err = chk.check(j.key, j.s.ID, tree.String(), counts, verified)
	return rec
}

// probedSession builds a session over the bundle as
// scenario.PrepareBundle does, with the best-case simulated teacher
// behind a probe; origin is the session start.
func probedSession(s *scenario.Scenario, b *artifacts.Bundle, origin time.Time, st *sessionTrace, opts ...core.Option) (*core.Session, *teacher.Sim, *probe) {
	sim := teacher.New(b.Doc, b.Truth)
	sim.Accelerate(b.Index, b.Extents, b.Plan)
	sim.Pol = teacher.BestCase
	sim.Boxes = s.Boxes
	sim.Orders = s.Orders
	pr := newProbe(sim, origin, st)
	opts = append(append([]core.Option(nil), opts...),
		core.WithSharedIndex(b.Index), core.WithSharedGraph(b.Graph), core.WithSharedSymbols(b.Syms))
	return core.New(b.Doc, pr, opts...), sim, pr
}

// verify evaluates the learned and the ground-truth query over the
// bundle's document and compares the serialized results.
func verify(ctx context.Context, b *artifacts.Bundle, tree *xq.Tree) (bool, error) {
	learned, err := xq.NewEvaluatorWithIndex(b.Index).Result(ctx, tree)
	if err != nil {
		return false, fmt.Errorf("evaluate learned query: %w", err)
	}
	truth, err := xq.NewEvaluatorWithIndex(b.Index).Result(ctx, b.Truth)
	if err != nil {
		return false, fmt.Errorf("evaluate ground truth: %w", err)
	}
	return xmldoc.XMLString(learned.DocNode()) == xmldoc.XMLString(truth.DocNode()), nil
}

// suites is Figure 16 with every cache warm: the 38 paper scenarios on
// their own instances, one worker on one artifact store. A second worker
// would keep both CPUs of a 2-CPU machine busy, and its latencies would
// then follow the machine's other load more than the program (README.md).
type suites struct {
	store *artifacts.Store
	jobs  []job
	rng   *rand.Rand
	chk   *checker
}

func newSuites(rng *rand.Rand, chk *checker) *suites {
	w := &suites{store: artifacts.NewStore(artifacts.DefaultBudget), rng: rng, chk: chk}
	for _, s := range paperScenarios() {
		w.jobs = append(w.jobs, job{s: s, key: s.ID})
	}
	return w
}

func (w *suites) pass(ctx context.Context, col *collector, tr *tracer) {
	runJobs(ctx, shuffled(w.rng, w.jobs), 1, func(j job) {
		col.add(runSession(ctx, w.store, j, w.chk, tr.session(j.s.ID)))
	})
}

func (w *suites) counters(context.Context) (counters, error) {
	c := counters{}
	c.addStore(w.store.Stats())
	return c, nil
}

func (w *suites) close(context.Context) error { return nil }

// coldInstanceSeeds are the xmark generator seeds of the cold-large
// instances. At 4× scale the learned join of XMark Q8, Q9 or Q10 fails
// to verify on some generated instances (18 of seeds 1–120, see
// README.md); these four verify all 19 scenarios, so every run measures
// the same documents and no session fails for a reason the benchmark
// does not control.
var coldInstanceSeeds = []int64{100, 200, 400, 500}

// coldScale multiplies every size knob of the default xmark instance.
const coldScale = 4

// coldLarge is a user bringing new documents: the 19 XMark scenarios
// rebound onto 4×-scale instances, each instance with a fresh artifact
// store in every pass, so index, plans, data graph and truth extents
// are built inside timed sessions. One worker.
type coldLarge struct {
	instances [][]job // per instance, the XMark scenarios rebound onto it
	rng       *rand.Rand
	chk       *checker

	// store is the current instance's store; retired sums the counters
	// of the stores already dropped.
	store   *artifacts.Store
	retired counters
}

func newColdLarge(rng *rand.Rand, chk *checker) *coldLarge {
	w := &coldLarge{rng: rng, chk: chk, store: artifacts.NewStore(artifacts.DefaultBudget), retired: counters{}}
	base := xmark.Scenarios()
	for _, seed := range coldInstanceSeeds {
		cfg := xmark.DefaultConfig()
		cfg.Seed = seed
		cfg.Categories *= coldScale
		cfg.ItemsPerRegion *= coldScale
		cfg.People *= coldScale
		cfg.OpenAuctions *= coldScale
		cfg.ClosedAuctions *= coldScale
		doc := xmark.Generate(cfg)
		var jobs []job
		for _, b := range base {
			// Rebind as internal/xmark's scale test does: selectors and
			// truth builders are instance-independent.
			s := *b
			s.Doc = func() *xmldoc.Document { return doc }
			jobs = append(jobs, job{s: &s, key: fmt.Sprintf("%s@seed%d", s.ID, seed)})
		}
		w.instances = append(w.instances, jobs)
	}
	return w
}

func (w *coldLarge) pass(ctx context.Context, col *collector, tr *tracer) {
	for _, jobs := range shuffled(w.rng, w.instances) {
		w.retired.addStore(w.store.Stats())
		w.store = artifacts.NewStore(artifacts.DefaultBudget)
		runJobs(ctx, shuffled(w.rng, jobs), 1, func(j job) {
			col.add(runSession(ctx, w.store, j, w.chk, tr.session(j.s.ID)))
		})
	}
}

func (w *coldLarge) counters(context.Context) (counters, error) {
	c := counters{}
	c.add(w.retired)
	c.addStore(w.store.Stats())
	return c, nil
}

func (w *coldLarge) close(context.Context) error { return nil }
