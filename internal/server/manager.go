package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xq"
)

// sessionState is the daemon-level lifecycle of one session. It wraps
// the core.Session state machine with the queueing states the bounded
// manager adds in front of it.
type sessionState int

const (
	stateIdle sessionState = iota
	stateQueued
	stateLearning
	stateDone
	stateFailed
)

func (s sessionState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateQueued:
		return "queued"
	case stateLearning:
		return "learning"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// session is one managed learning session. All fields past the
// configuration block are guarded by the manager's mutex.
type session struct {
	id         string
	scenarioID string
	scn        *scenario.Scenario
	// bundle is the session's resolved artifact bundle — immutable,
	// shared with every other session of the same content hash through
	// the server's store. Nil only for test sessions created without a
	// store; production sessions always carry one.
	bundle *artifacts.Bundle
	pol    teacher.Policy
	opts   []core.Option

	createdAt time.Time
	lastTouch time.Time

	state  sessionState
	cancel context.CancelFunc
	result *scenario.Result
	err    error
}

// learnFunc performs one learn run for a session. The production
// function prepares and runs the scenario; tests substitute blocking
// stubs to exercise queueing, backpressure, and shutdown without real
// learning work. extra holds per-run engine options appended on top of
// the session's own (the streaming endpoint's batched protocol and
// observer); nil for a plain learn.
type learnFunc func(ctx context.Context, s *session, extra []core.Option) (*scenario.Result, xq.CacheStats, error)

// scenarioLearn is the production learnFunc: a fresh Prepared per run
// (so re-learns and concurrent sessions share nothing mutable beyond
// the bundle's immutable artifacts), with the evaluator
// acceleration-cache counters harvested from both the engine and the
// simulated teacher afterwards.
func (m *manager) scenarioLearn(ctx context.Context, s *session, extra []core.Option) (*scenario.Result, xq.CacheStats, error) {
	opts := s.opts
	if len(extra) > 0 {
		opts = append(append([]core.Option{}, s.opts...), extra...)
	}
	var p *scenario.Prepared
	if s.bundle != nil {
		p = scenario.PrepareBundle(s.scn, s.bundle, s.pol, opts...)
	} else {
		p = scenario.Prepare(s.scn, s.pol, opts...)
	}
	if m.teacherLatency > 0 {
		p.SetTeacherLatency(m.teacherLatency)
	}
	res, err := p.Learn(ctx)
	cache := p.Session.Engine().CacheStats().Add(p.Sim.CacheStats())
	return res, cache, err
}

// manager owns every session and bounds the learning work: at most
// maxLearning learns run concurrently, at most queueDepth more may
// wait, and anything beyond that is refused with ErrQueueFull so the
// HTTP layer can answer 429 + Retry-After instead of accumulating
// unbounded goroutines.
type manager struct {
	maxLearning int
	queueDepth  int
	ttl         time.Duration
	// teacherLatency simulates a slow teacher on every learn (the
	// benchmark knob for the batched protocol); zero for real speed.
	teacherLatency time.Duration

	metrics *metrics
	logger  *slog.Logger
	now     func() time.Time
	learn   learnFunc

	sem chan struct{} // counting semaphore: one slot per running learn
	wg  sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
	seq      int
	draining bool

	stopJanitor sync.Once
	janitorStop chan struct{}
	janitorDone chan struct{}
}

func newManager(maxLearning, queueDepth int, ttl, teacherLatency time.Duration, m *metrics, logger *slog.Logger) *manager {
	mgr := &manager{
		maxLearning:    maxLearning,
		queueDepth:     queueDepth,
		ttl:            ttl,
		teacherLatency: teacherLatency,
		metrics:        m,
		logger:         logger,
		now:            time.Now,
		sem:            make(chan struct{}, maxLearning),
		sessions:       make(map[string]*session),
		janitorStop:    make(chan struct{}),
		janitorDone:    make(chan struct{}),
	}
	mgr.learn = mgr.scenarioLearn
	go mgr.janitor()
	return mgr
}

// janitor evicts sessions idle past the TTL. Queued and learning
// sessions are never evicted — they are cancelable only through DELETE
// or shutdown — so eviction cannot race a running learn.
func (m *manager) janitor() {
	defer close(m.janitorDone)
	if m.ttl <= 0 {
		<-m.janitorStop
		return
	}
	interval := m.ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.evictExpired()
		}
	}
}

func (m *manager) evictExpired() {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-m.ttl)
	for id, s := range m.sessions {
		if s.state == stateQueued || s.state == stateLearning {
			continue
		}
		if s.lastTouch.Before(cutoff) {
			delete(m.sessions, id)
			m.metrics.evicted()
			m.logger.Info("session evicted", "session", id, "scenario", s.scenarioID)
		}
	}
}

// Create registers a new idle session for the scenario and returns its
// snapshot. scenarioID is the registry id, or "upload" for a posted
// spec; b is the session's resolved artifact bundle (nil only in
// tests that bypass the store).
func (m *manager) Create(scenarioID string, scn *scenario.Scenario, b *artifacts.Bundle, pol teacher.Policy, opts []core.Option) (api.SessionV1, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return api.SessionV1{}, ErrDraining
	}
	m.seq++
	now := m.now()
	s := &session{
		id:         fmt.Sprintf("s-%04d", m.seq),
		scenarioID: scenarioID,
		scn:        scn,
		bundle:     b,
		pol:        pol,
		opts:       opts,
		createdAt:  now,
		lastTouch:  now,
		state:      stateIdle,
	}
	m.sessions[s.id] = s
	m.metrics.created()
	return m.snapshotLocked(s), nil
}

// inFlightLocked counts sessions occupying learn capacity (queued or
// running).
func (m *manager) inFlightLocked() int {
	n := 0
	for _, s := range m.sessions {
		if s.state == stateQueued || s.state == stateLearning {
			n++
		}
	}
	return n
}

// StartLearn admits the session into the bounded learn pipeline: it
// transitions to queued immediately and to learning once a semaphore
// slot frees up. A session already queued or learning is busy; a full
// queue refuses with ErrQueueFull (the HTTP layer's 429).
func (m *manager) StartLearn(id string) (api.SessionV1, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return api.SessionV1{}, ErrDraining
	}
	s, ok := m.sessions[id]
	if !ok {
		return api.SessionV1{}, fmt.Errorf("%w: %s", core.ErrSessionNotFound, id)
	}
	if s.state == stateQueued || s.state == stateLearning {
		return api.SessionV1{}, fmt.Errorf("%w: %s", core.ErrSessionBusy, id)
	}
	if n := m.inFlightLocked(); n >= m.maxLearning+m.queueDepth {
		return api.SessionV1{}, fmt.Errorf("%w: %d sessions in flight (max %d learning + %d queued)",
			ErrQueueFull, n, m.maxLearning, m.queueDepth)
	}
	// Sessions detach from the request context deliberately: a learn
	// outlives the POST that started it and is canceled only by DELETE
	// or shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	s.state = stateQueued
	s.cancel = cancel
	s.result, s.err = nil, nil
	s.lastTouch = m.now()
	m.metrics.started()
	m.wg.Add(1)
	go m.runSession(ctx, s, nil)
	return m.snapshotLocked(s), nil
}

// streamBuffer bounds the event channel between a learning session and
// its streaming HTTP response. The learn blocks once the buffer fills
// and the client stops reading — acceptable backpressure, since client
// disconnect cancels the learn's context and unblocks it.
const streamBuffer = 64

// StartLearnStream admits the session like StartLearn, but runs the
// learn over the batched + mirrored teacher protocol with a
// protocol observer attached, and couples the learn's lifetime to the
// stream's context: protocol events arrive in emit order on the
// returned channel, which closes only after the terminal state (done
// or failed) is recorded, so a Get after drain reads the final
// snapshot. Canceling ctx — the client hanging up — cancels the learn;
// the session then finishes failed with a canceled error, exactly as a
// DELETE mid-learn would.
func (m *manager) StartLearnStream(ctx context.Context, id string) (<-chan core.Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrSessionNotFound, id)
	}
	if s.state == stateQueued || s.state == stateLearning {
		return nil, fmt.Errorf("%w: %s", core.ErrSessionBusy, id)
	}
	if n := m.inFlightLocked(); n >= m.maxLearning+m.queueDepth {
		return nil, fmt.Errorf("%w: %d sessions in flight (max %d learning + %d queued)",
			ErrQueueFull, n, m.maxLearning, m.queueDepth)
	}
	lctx, cancel := context.WithCancel(ctx)
	ch := make(chan core.Event, streamBuffer)
	extra := []core.Option{
		core.WithBatchedProtocol(true),
		core.WithObserver(func(ev core.Event) {
			select {
			case ch <- ev:
			case <-lctx.Done():
				// Client gone: drop the event; the learn itself is being
				// canceled through the same context.
			}
		}),
	}
	s.state = stateQueued
	s.cancel = cancel
	s.result, s.err = nil, nil
	s.lastTouch = m.now()
	m.metrics.started()
	m.wg.Add(1)
	go func() {
		defer close(ch)
		m.runSession(lctx, s, extra)
	}()
	return ch, nil
}

func (m *manager) runSession(ctx context.Context, s *session, extra []core.Option) {
	defer m.wg.Done()
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		m.finish(s, nil, xq.CacheStats{}, fmt.Errorf("server: canceled while queued: %w", ctx.Err()), 0)
		return
	}
	defer func() { <-m.sem }()
	m.setState(s, stateLearning)
	start := m.now()
	res, cache, err := m.learn(ctx, s, extra)
	m.finish(s, res, cache, err, float64(m.now().Sub(start).Microseconds())/1e3)
}

func (m *manager) setState(s *session, st sessionState) {
	m.mu.Lock()
	s.state = st
	s.lastTouch = m.now()
	m.mu.Unlock()
}

func (m *manager) finish(s *session, res *scenario.Result, cache xq.CacheStats, err error, latencyMS float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.lastTouch = m.now()
	if err != nil {
		s.state = stateFailed
		s.err = err
		if errors.Is(err, context.Canceled) {
			m.metrics.canceled()
		} else {
			m.metrics.failed()
		}
		m.logger.Info("learn failed", "session", s.id, "scenario", s.scenarioID, "err", err)
		return
	}
	s.state = stateDone
	s.result = res
	tot := res.Stats.Totals()
	m.metrics.completed(latencyMS, interactionTotals{mq: tot.MQ, ce: tot.CE, cb: tot.CB, ob: tot.OB},
		cache, res.Stats.Speculation)
	m.logger.Info("learn done", "session", s.id, "scenario", s.scenarioID,
		"verified", res.Verified, "latency_ms", latencyMS)
}

// Get returns the session's snapshot and refreshes its TTL.
func (m *manager) Get(id string) (api.SessionV1, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return api.SessionV1{}, fmt.Errorf("%w: %s", core.ErrSessionNotFound, id)
	}
	s.lastTouch = m.now()
	return m.snapshotLocked(s), nil
}

// List returns every session's snapshot in creation order (ids are
// zero-padded sequence numbers, so lexical order is creation order).
func (m *manager) List() []api.SessionV1 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]api.SessionV1, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, m.snapshotLocked(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes the session, canceling its learn if one is queued or
// running.
func (m *manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %s", core.ErrSessionNotFound, id)
	}
	if s.cancel != nil && (s.state == stateQueued || s.state == stateLearning) {
		s.cancel()
	}
	delete(m.sessions, id)
	m.metrics.deleted()
	return nil
}

// Tree returns the learned query of a done session.
func (m *manager) Tree(id string) (*api.TreeV1, error) {
	res, _, err := m.completedResult(id)
	if err != nil {
		return nil, err
	}
	return api.NewTreeV1(res.Tree), nil
}

// Result returns the full completed-run document of a done session.
func (m *manager) Result(id string) (*api.ResultV1, error) {
	res, scenarioID, err := m.completedResult(id)
	if err != nil {
		return nil, err
	}
	return api.NewResultV1(scenarioID, res.Verified, res.Tree, res.Stats), nil
}

func (m *manager) completedResult(id string) (*scenario.Result, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, "", fmt.Errorf("%w: %s", core.ErrSessionNotFound, id)
	}
	s.lastTouch = m.now()
	switch s.state {
	case stateDone:
		return s.result, s.scenarioID, nil
	case stateFailed:
		return nil, "", fmt.Errorf("%w: last learn: %w", core.ErrSessionFailed, s.err)
	default:
		return nil, "", fmt.Errorf("%w: state %s", core.ErrSessionNotDone, s.state)
	}
}

func (m *manager) snapshotLocked(s *session) api.SessionV1 {
	out := api.SessionV1{
		SchemaVersion:   api.SchemaVersion,
		ID:              s.id,
		Scenario:        s.scenarioID,
		State:           s.state.String(),
		CreatedAtUnixMS: s.createdAt.UnixMilli(),
	}
	if s.bundle != nil {
		out.ArtifactHash = s.bundle.Hash
	}
	if s.err != nil {
		out.Error = s.err.Error()
	}
	if s.state == stateDone && s.result != nil {
		v := s.result.Verified
		out.Verified = &v
		out.Stats = api.NewStatsV1(s.result.Stats)
	}
	return out
}

// byState is the current state gauge for the metrics endpoint.
func (m *manager) byState() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int)
	for _, s := range m.sessions {
		out[s.state.String()]++
	}
	return out
}

// counts reports (total sessions, learning sessions) for the health
// endpoint, plus whether the manager is draining.
func (m *manager) counts() (total, learning int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		if s.state == stateLearning {
			learning++
		}
	}
	return len(m.sessions), learning, m.draining
}

// Shutdown drains the manager: no new sessions or learns are admitted,
// active learns run to completion until ctx expires, and any still
// running at the deadline are canceled. It always waits for every
// session goroutine to exit before returning.
func (m *manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.stopJanitor.Do(func() { close(m.janitorStop) })
	<-m.janitorDone

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		canceled := 0
		for _, s := range m.sessions {
			if s.cancel != nil && (s.state == stateQueued || s.state == stateLearning) {
				s.cancel()
				canceled++
			}
		}
		m.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain deadline exceeded, canceled %d in-flight sessions: %w",
			canceled, ctx.Err())
	}
}
