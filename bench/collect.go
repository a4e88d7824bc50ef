package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/xq"
)

// sessionRec is what one session reports: its end-to-end timings, its
// dialogue size, the outcome of its checks, and the per-layer work it
// observed. err is nil only for a verified session that passed every
// check.
type sessionRec struct {
	err error
	key string // scenario, and on cold-large its instance

	total     time.Duration // start to verified result
	first     time.Duration // start to the first question (-1: none)
	gaps      []float64     // think times, ms
	questions int           // MQ+CE+CB+OB

	layerWork
	cache xq.CacheStats
	spec  core.SpeculationStats
}

// layerWork is the per-layer work of one session, or a sum of them.
type layerWork struct {
	resolve, learn, verify  time.Duration
	calls                   [nMethods]int
	busy                    [nMethods]time.Duration
	mq, reduced, wireRounds int
}

func (w *layerWork) add(o layerWork) {
	w.resolve += o.resolve
	w.learn += o.learn
	w.verify += o.verify
	for m := range w.calls {
		w.calls[m] += o.calls[m]
		w.busy[m] += o.busy[m]
	}
	w.mq += o.mq
	w.reduced += o.reduced
	w.wireRounds += o.wireRounds
}

// maxReasons bounds the failure messages a run keeps for its report.
const maxReasons = 10

// collector accumulates the sessions of one phase of a run. It is safe
// for concurrent use by the workload's workers.
type collector struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string

	sessions, firsts, thinks latencies // verified sessions only
	questions                int
	layerWork
	counts counters
}

// latencies are one kind of latency sample of a run, in ms: all of them
// in completion order, for the p99, and by session key, for the p50.
//
// The p50 is the median over session keys of a per-key value, so every
// scenario weighs the same and the value does not depend on how the
// samples happen to split between scenarios. The median of the pooled
// samples does: the first questions of the 19 XMark scenarios take about
// three times as long as those of the 19 others, so on suites the pooled
// median sits in the gap between the two halves and jumps across it with
// the mix of scenarios in the samples. The per-key value is the key's
// median, except for think times, where it is the key's mean: think
// times are bimodal, a few tens of µs when the learner asks its next
// question at once and 0.1–3 ms otherwise, in proportions that put the
// median of a scenario's think times between the modes. On the stream
// the proportions also shift from session to session, because there a
// think time is how the daemon's goroutines and frame writes happened to
// interleave.
type latencies struct {
	all   []float64
	byKey map[string][]float64
}

func (l *latencies) add(key string, vs ...float64) {
	if len(vs) == 0 {
		return
	}
	l.all = append(l.all, vs...)
	if l.byKey == nil {
		l.byKey = map[string][]float64{}
	}
	l.byKey[key] = append(l.byKey[key], vs...)
}

func (c *collector) add(r sessionRec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if r.err != nil {
		c.failed++
		if len(c.reasons) < maxReasons {
			c.reasons = append(c.reasons, r.err.Error())
		}
		return
	}
	c.sessions.add(r.key, ms(r.total))
	if r.first >= 0 {
		c.firsts.add(r.key, ms(r.first))
	}
	c.thinks.add(r.key, r.gaps...)
	c.questions += r.questions
	c.layerWork.add(r.layerWork)
	if c.counts == nil {
		c.counts = counters{}
	}
	c.counts.addCache(r.cache)
	c.counts.addSpec(r.spec)
}

// tailReady reports whether every latency sample set fills at least
// one block of blockP99.
func (c *collector) tailReady(minTail int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return min(len(c.sessions.all), len(c.firsts.all), len(c.thinks.all)) >= max(blockLen(minTail), 1)
}

// counters are cumulative layer counters by name: cache hits and misses
// ("<cache>.hits", "<cache>.misses"), speculation counts, and the
// daemon's learn latency totals. Sessions add theirs; the counters no
// session observes — the artifact store's, the daemon's /metrics — are
// read around the timed window and differenced.
type counters map[string]float64

func (c counters) addHits(name string, cc xq.CacheCounter) {
	c[name+".hits"] += float64(cc.Hits)
	c[name+".misses"] += float64(cc.Misses)
}

// hitRatio is hits over lookups, or 0 when nothing was looked up.
func (c counters) hitRatio(name string) float64 {
	h := c[name+".hits"]
	return ratio(h, h+c[name+".misses"])
}

func (c counters) addCache(s xq.CacheStats) {
	for i, cc := range []xq.CacheCounter{s.Path, s.Simple, s.Value, s.Extent, s.Relay, s.Plan, s.Arena, s.Compile} {
		c.addHits("xq.cache."+cacheNames[i], cc)
	}
}

func (c counters) addSpec(s core.SpeculationStats) {
	c["speculation.prefetches"] += float64(s.Prefetches)
	c["speculation.mirror_answers"] += float64(s.MirrorAnswers)
	c["speculation.kept"] += float64(s.Kept)
	c["speculation.discarded"] += float64(s.Discarded)
}

func (c counters) addStore(s artifacts.Stats) {
	c.addHits("artifacts.lookup", s.Lookups)
	c.addHits("artifacts.index", s.Indexes)
	c.addHits("artifacts.plan", s.Plans)
}

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// minus returns the change from an earlier snapshot.
func (c counters) minus(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// checker holds the expected outputs every session is checked against:
// the golden learned query of each paper scenario, and the dialogue
// counts (MQ, CE, CB, OB) each session key showed the first time, which
// every later pass must repeat exactly.
type checker struct {
	golden map[string]string // scenario ID → learned XQI; nil: not checked

	mu     sync.Mutex
	counts map[string][4]int
}

func newChecker(golden map[string]string) *checker {
	return &checker{golden: golden, counts: map[string][4]int{}}
}

// loadGolden reads the golden learned queries of the given scenarios
// from the repository's experiment test data.
func loadGolden(repo string, ids []string) (map[string]string, error) {
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(repo, "internal", "experiments", "testdata", "golden", id+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden query for %s: %w", id, err)
		}
		out[id] = string(b)
	}
	return out, nil
}

// check returns nil when a session's outputs are all as expected.
func (c *checker) check(key, id, xqi string, counts [4]int, verified bool) error {
	if !verified {
		return fmt.Errorf("%s: learned result differs from the ground truth's", key)
	}
	if c.golden != nil && xqi != c.golden[id] {
		return fmt.Errorf("%s: learned query differs from its golden file", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.counts[key]; !ok {
		c.counts[key] = counts
	} else if counts != want {
		return fmt.Errorf("%s: dialogue MQ/CE/CB/OB %v, earlier pass %v", key, counts, want)
	}
	return nil
}

// dialogue returns the MQ, CE, CB and OB totals of a session.
func dialogue(st *core.Stats) [4]int {
	t := st.Totals()
	return [4]int{t.MQ, t.CE, t.CB, t.OB}
}
