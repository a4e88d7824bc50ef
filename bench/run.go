package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Window is the timed window: whole passes run until it has passed
	// and every latency sample fills one block of blockP99.
	Window time.Duration
	// Trace profiles the timed window and records spans of its first
	// pass; the run then reports the per-layer metrics.
	Trace bool
	// Setups is how often the run sets the workload up from nothing;
	// setup_s is the median.
	Setups int
	// MinTail is how many samples a reported p99 needs beyond it.
	MinTail int
	// Repo is the repository root, for the golden learned queries.
	Repo string
	// Out, when set, receives a traced run's span file and CPU profile.
	Out string
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"suites", "cold-large", "stream-5ms"}

// workload is one closed-loop session mix.
type workload interface {
	// pass runs every session of one pass once and returns when all
	// have finished; tr, when non-nil, traces them.
	pass(ctx context.Context, col *collector, tr *tracer)
	// counters snapshots the cumulative counters no session observes.
	counters(ctx context.Context) (counters, error)
	close(ctx context.Context) error
}

func newWorkload(name string, rng *rand.Rand, chk *checker) workload {
	switch name {
	case "suites":
		return newSuites(rng, chk)
	case "cold-large":
		return newColdLarge(rng, chk)
	default:
		return newStream(rng, chk)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is a run's result plus what the human-readable report shows.
type outcome struct {
	result
	reasons []string
	cpu     map[string]int64 // CPU ns by innermost package (traced runs)
}

// run sets the workload up cfg.Setups times, then measures whole passes
// over the timed window and assembles the metrics.
func run(ctx context.Context, cfg Config) (*outcome, error) {
	if !slices.Contains(workloadNames, cfg.Workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, workloadNames)
	}
	var golden map[string]string
	if cfg.Workload != "cold-large" {
		var err error
		if golden, err = loadGolden(cfg.Repo, scenarioIDs(paperScenarios())); err != nil {
			return nil, err
		}
	}
	chk := newChecker(golden)

	warm := &collector{}
	var w workload
	var setups []float64
	for range max(cfg.Setups, 1) {
		if w != nil {
			if err := w.close(ctx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		w = newWorkload(cfg.Workload, rand.New(rand.NewSource(cfg.Seed)), chk)
		w.pass(ctx, warm, nil)
		setups = append(setups, time.Since(start).Seconds())
	}
	out, err := measure(ctx, cfg, w, warm, setups)
	if cerr := w.close(context.WithoutCancel(ctx)); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", cfg.Workload, cerr)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs whole passes over the timed window of a set-up workload
// and computes the run's metrics; warm holds the set-up passes.
func measure(ctx context.Context, cfg Config, w workload, warm *collector, setups []float64) (*outcome, error) {
	before, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var prof bytes.Buffer
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if cfg.Trace {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	col := &collector{}
	// Whole passes run until the window has passed and every latency
	// sample fills a block; the limit keeps a run that cannot get there
	// bounded.
	limit := 3*cfg.Window + 30*time.Second
	start := time.Now()
	for pass := 0; ctx.Err() == nil; pass++ {
		traced := tr
		if pass > 0 {
			traced = nil
		}
		w.pass(ctx, col, traced)
		el := time.Since(start)
		if el >= limit || el >= cfg.Window && (col.failed > 0 || col.tailReady(cfg.MinTail)) {
			break
		}
	}
	elapsed := time.Since(start)
	if cfg.Trace {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}

	out := &outcome{result: result{
		Attempted: warm.attempted + col.attempted,
		Failed:    warm.failed + col.failed,
	}}
	out.reasons = append(warm.reasons, col.reasons...)
	if cfg.Trace {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		var total int64
		out.cpu, total = p.cpuByLayer()
		d := after.minus(before)
		d.add(col.counts)
		out.Metrics = perLayer(col, d, elapsed, out.cpu, total)
		if cfg.Out != "" {
			if err := tr.write(filepath.Join(cfg.Out, "spans-"+cfg.Workload+".ndjson")); err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(cfg.Out, "cpu-"+cfg.Workload+".pprof"), prof.Bytes(), 0o644); err != nil {
				return nil, fmt.Errorf("write CPU profile: %w", err)
			}
		}
	} else {
		// A run with failed sessions is not comparable anyway: it reports
		// what its verified sessions give instead of stopping at a
		// percentile they cannot support.
		minTail := cfg.MinTail
		if out.Failed > 0 {
			minTail = 0
		}
		out.Metrics, err = endToEnd(minTail, col, setups, elapsed, m1.TotalAlloc-m0.TotalAlloc)
		if err != nil && out.Failed == 0 {
			return nil, err
		}
		// Live heap with the store or daemon still alive, the run's own
		// samples dropped first.
		col, warm = nil, nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(w)
		out.Metrics.set("retained_mb", "MB", float64(m1.HeapAlloc)/1e6)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// metrics maps a metric's name to its value and unit.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd computes every end-to-end metric but retained_mb, which the
// run measures last. On error the metrics it could compute are
// returned with it.
func endToEnd(minTail int, col *collector, setups []float64, elapsed time.Duration, allocated uint64) (metrics, error) {
	m := metrics{}
	n := float64(len(col.sessions.all))
	if n == 0 {
		return m, fmt.Errorf("no session of the timed window verified (%d failed)", col.failed)
	}
	m.set("setup_s", "s", median(setups))
	m.set("sessions_per_s", "1/s", n/elapsed.Seconds())
	m.set("questions_per_session", "count", float64(col.questions)/n)
	m.set("alloc_mb_per_session", "MB", float64(allocated)/1e6/n)
	for _, s := range []struct {
		name string
		l    *latencies
		per  func([]float64) float64 // a key's value for the p50; see latencies
	}{{"session", &col.sessions, median}, {"first_question", &col.firsts, median}, {"think", &col.thinks, mean}} {
		p50, ok50 := keyedMedian(s.l.byKey, s.per)
		p99, ok99 := blockP99(s.l.all, minTail)
		if !ok50 || !ok99 {
			return m, fmt.Errorf("%s: %d samples leave fewer than %d beyond the p99", s.name, len(s.l.all), minTail)
		}
		m.set(s.name+"_p50_ms", "ms", p50)
		m.set(s.name+"_p99_ms", "ms", p99)
	}
	return m, nil
}

// cpuLayers are the packages whose CPU time is reported by name; "other"
// sums the remaining repro/internal packages, "bench" is the
// benchmark's own code and "runtime" everything else.
var cpuLayers = []string{
	"angluin", "pathre", "core", "xq", "xmldoc", "datagraph", "teacher",
	"artifacts", "scenario", "pool", "server", "api", "other", "bench", "runtime",
}

var cacheNames = []string{"path", "simple", "value", "extent", "relay", "plan", "arena", "compile"}

// perLayer computes every per-layer metric of a traced run. d holds the
// window's counters, the sessions' and the workload's; cpu the
// profile's CPU ns by package. A number the workload cannot observe —
// teacher calls inside the daemon, the stream's resolve and verify
// steps — reads 0.
func perLayer(col *collector, d counters, elapsed time.Duration, cpu map[string]int64, cpuTotal int64) metrics {
	m := metrics{}
	n := float64(len(col.sessions.all))
	per := func(v float64) float64 { return ratio(v, n) }
	perMS := func(t time.Duration) float64 { return per(ms(t)) }

	var busy time.Duration
	for _, b := range col.busy {
		busy += b
	}
	var sessionMS float64
	for _, s := range col.sessions.all {
		sessionMS += s
	}
	learnMS := ms(col.learn)
	selfMS := learnMS - ms(busy)
	accounted := ms(col.resolve + col.learn + col.verify)
	var overheadMS float64
	if learns := d["daemon.learns"]; learns > 0 {
		// The daemon learns and verifies out of the client's sight: only
		// /metrics times it, and its teacher is not behind the probe.
		learnMS = d["daemon.learn_ms"] / learns * n
		selfMS = 0
		accounted = learnMS
		overheadMS = sessionMS - learnMS
	}
	m.set("core.learn_ms_per_session", "ms", per(learnMS))
	m.set("core.self_ms_per_session", "ms", per(selfMS))
	m.set("server.overhead_ms_per_session", "ms", per(overheadMS))
	m.set("core.reduced_ratio", "ratio", ratio(float64(col.reduced), float64(col.reduced+col.mq)))

	m.set("core.speculation.prefetches_per_session", "count", per(d["speculation.prefetches"]))
	m.set("core.speculation.mirror_answers_per_session", "count", per(d["speculation.mirror_answers"]))
	m.set("core.speculation.kept_ratio", "ratio", ratio(d["speculation.kept"], d["speculation.kept"]+d["speculation.discarded"]))

	m.set("xq.verify_ms_per_session", "ms", perMS(col.verify))
	for _, c := range cacheNames {
		m.set("xq.cache."+c+".hit_ratio", "ratio", d.hitRatio("xq.cache."+c))
	}

	m.set("artifacts.resolve_ms_per_session", "ms", perMS(col.resolve))
	for _, c := range []string{"lookup", "index", "plan"} {
		m.set("artifacts."+c+".hit_ratio", "ratio", d.hitRatio("artifacts."+c))
	}

	m.set("teacher.member.calls_per_session", "count", per(float64(col.calls[mMember]+col.calls[mMemberBatch])))
	m.set("teacher.equivalent.calls_per_session", "count", per(float64(col.calls[mEquivalent]+col.calls[mEquivalentFull])))
	m.set("teacher.boxes.calls_per_session", "count", per(float64(col.calls[mConditionBox]+col.calls[mOrderBy])))
	m.set("teacher.member.busy_ms_per_session", "ms", perMS(col.busy[mMember]+col.busy[mMemberBatch]))
	m.set("teacher.equivalent.busy_ms_per_session", "ms", perMS(col.busy[mEquivalent]+col.busy[mEquivalentFull]))
	m.set("teacher.busy_share", "ratio", ratio(ms(busy), learnMS))

	m.set("server.wire_rounds_per_session", "count", per(float64(col.wireRounds)))
	m.set("trace.accounted_share", "ratio", ratio(accounted, sessionMS))
	m.set("trace.sessions_per_s", "1/s", n/elapsed.Seconds())

	var named int64
	for _, l := range cpuLayers {
		if l != "other" {
			named += cpu[l]
		}
	}
	for _, l := range cpuLayers {
		v := cpu[l]
		if l == "other" {
			v = cpuTotal - named
		}
		m.set("cpu."+l+".ms_per_session", "ms", per(float64(v)/1e6))
	}
	m.set("cpu.total.ms_per_session", "ms", per(float64(cpuTotal)/1e6))
	return m
}
