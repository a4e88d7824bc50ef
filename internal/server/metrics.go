package server

import (
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/xq"
)

// latencyBoundsMS are the learn-latency histogram's bucket upper bounds
// in milliseconds. The suites' learns run from a few ms (XMP) to a few
// seconds (XMark worst-case), so the buckets span that range roughly
// log-uniformly; observations above the last bound land in the implicit
// overflow bucket.
var latencyBoundsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram. Methods are not
// goroutine-safe; the owning metrics struct serializes access.
type histogram struct {
	counts []uint64 // len(latencyBoundsMS)+1; the extra slot is overflow
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBoundsMS)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(latencyBoundsMS) && v > latencyBoundsMS[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

func (h *histogram) wire() api.HistogramV1 {
	out := api.HistogramV1{
		UpperBounds: append([]float64(nil), latencyBoundsMS...),
		Counts:      append([]uint64(nil), h.counts...),
		Sum:         h.sum,
		Count:       h.count,
	}
	return out
}

// metrics aggregates daemon-lifetime counters. The session manager
// updates it under its own lock for session transitions; the fields
// have their own mutex so the metrics endpoint never contends with a
// long-running manager operation.
type metrics struct {
	mu sync.Mutex

	sessionsCreated uint64
	sessionsDeleted uint64
	sessionsEvicted uint64

	learnsStarted   uint64
	learnsCompleted uint64
	learnsFailed    uint64
	learnsCanceled  uint64
	learnLatencyMS  *histogram

	// interaction totals summed over completed learns
	mq, ce, cb, ob uint64

	// xq acceleration-cache counters summed over completed learns
	// (engine evaluator + teacher evaluator).
	cache xq.CacheStats

	// spec sums the batched teacher protocol's transport counters over
	// completed learns; all zero when every learn ran serially.
	spec core.SpeculationStats
}

func newMetrics() *metrics {
	return &metrics{learnLatencyMS: newHistogram()}
}

func (m *metrics) created()  { m.mu.Lock(); m.sessionsCreated++; m.mu.Unlock() }
func (m *metrics) deleted()  { m.mu.Lock(); m.sessionsDeleted++; m.mu.Unlock() }
func (m *metrics) evicted()  { m.mu.Lock(); m.sessionsEvicted++; m.mu.Unlock() }
func (m *metrics) started()  { m.mu.Lock(); m.learnsStarted++; m.mu.Unlock() }
func (m *metrics) canceled() { m.mu.Lock(); m.learnsCanceled++; m.mu.Unlock() }
func (m *metrics) failed()   { m.mu.Lock(); m.learnsFailed++; m.mu.Unlock() }

// completed records one successful learn: its wall-clock latency, the
// interaction totals of its stats, and the acceleration-cache counters
// of its evaluators.
func (m *metrics) completed(latencyMS float64, tot interactionTotals, cache xq.CacheStats, spec core.SpeculationStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.learnsCompleted++
	m.learnLatencyMS.observe(latencyMS)
	m.mq += uint64(tot.mq)
	m.ce += uint64(tot.ce)
	m.cb += uint64(tot.cb)
	m.ob += uint64(tot.ob)
	m.cache = m.cache.Add(cache)
	m.spec.Prefetches += spec.Prefetches
	m.spec.MirrorAnswers += spec.MirrorAnswers
	m.spec.Kept += spec.Kept
	m.spec.Discarded += spec.Discarded
}

// interactionTotals is the subset of core stats the metrics endpoint
// aggregates.
type interactionTotals struct{ mq, ce, cb, ob int }

// wire renders the counters; byState comes from the session manager
// and artifacts from the server's store, so the three pieces of
// MetricsV1 are assembled by the caller.
func (m *metrics) wire(byState map[string]int, artifacts api.ArtifactStoreV1) api.MetricsV1 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return api.MetricsV1{
		SchemaVersion:   api.SchemaVersion,
		SessionsByState: byState,
		SessionsCreated: m.sessionsCreated,
		SessionsDeleted: m.sessionsDeleted,
		SessionsEvicted: m.sessionsEvicted,
		Learn: api.LearnMetricsV1{
			Started:   m.learnsStarted,
			Completed: m.learnsCompleted,
			Failed:    m.learnsFailed,
			Canceled:  m.learnsCanceled,
			LatencyMS: m.learnLatencyMS.wire(),
		},
		Interactions: api.InteractionTotalsV1{MQ: m.mq, CE: m.ce, CB: m.cb, OB: m.ob},
		XQCache:      api.NewCacheStatsV1(m.cache),
		Artifacts:    artifacts,
		Speculation:  api.NewSpeculationV1(m.spec),
	}
}
