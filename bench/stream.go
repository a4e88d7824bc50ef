package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/xq"
)

// streamLatency is the simulated teacher's round trip in the stream
// workload.
const streamLatency = 5 * time.Millisecond

const streamClients = 2

// stream is the interactive deployment: an in-process xlearnerd daemon
// on a loopback listener whose simulated teacher takes 5 ms per round
// trip, driven by two closed-loop clients. Each session is created,
// learned over the streaming endpoint (the batched + speculative
// protocol) to its done frame, and then its learned query is fetched
// and the session deleted.
type stream struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	ids    []string
	rng    *rand.Rand
	chk    *checker
}

func newStream(rng *rand.Rand, chk *checker) *stream {
	scns := paperScenarios()
	srv := server.New(server.Config{
		Scenarios:      scns,
		TeacherLatency: streamLatency,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	return &stream{
		srv:    srv,
		ts:     ts,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: streamClients}},
		ids:    scenarioIDs(scns),
		rng:    rng,
		chk:    chk,
	}
}

func (w *stream) pass(ctx context.Context, col *collector, tr *tracer) {
	runJobs(ctx, shuffled(w.rng, w.ids), streamClients, func(id string) {
		col.add(w.session(ctx, id, tr.session(id)))
	})
}

// session runs one client session and checks everything it received.
func (w *stream) session(ctx context.Context, id string, st *sessionTrace) sessionRec {
	defer st.finish()
	rec := sessionRec{key: id, first: -1}
	start := time.Now()
	var sess api.SessionV1
	err := w.call(ctx, http.MethodPost, "/v1/sessions", api.CreateSessionV1{Scenario: id}, http.StatusCreated, &sess)
	created := time.Now()
	st.fixed(spanResolve, "http.create", start, created)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", id, err)
		return rec
	}

	done, err := w.learn(ctx, sess.ID, start, &rec, st)
	end := time.Now()
	rec.total = end.Sub(start)
	st.fixed(spanLearn, "http.stream", created, end)
	st.fixed(spanSession, "session", start, end)
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", id, err)
		return rec
	}

	var tree api.TreeV1
	err = w.call(ctx, http.MethodGet, "/v1/sessions/"+sess.ID+"/tree", nil, http.StatusOK, &tree)
	st.fixed(spanVerify, "http.tree", end, time.Now())
	if err == nil {
		err = w.call(ctx, http.MethodDelete, "/v1/sessions/"+sess.ID, nil, http.StatusNoContent, nil)
	}
	if err != nil {
		rec.err = fmt.Errorf("%s: %w", id, err)
		return rec
	}

	t := done.Stats.Totals
	counts := [4]int{t.MQ, t.CE, t.CB, t.OB}
	rec.questions = counts[0] + counts[1] + counts[2] + counts[3]
	rec.mq, rec.reduced = t.MQ, t.ReducedTotal
	rec.err = w.chk.check(id, id, tree.XQI, counts, done.Verified != nil && *done.Verified)
	return rec
}

// learn streams the session's learn and checks the frame protocol:
// every mq_answers frame answers an open mq_batch of the same seq, no
// batch is left open, and the stream ends with exactly one done frame.
// It returns the done frame's session document.
func (w *stream) learn(ctx context.Context, id string, start time.Time, rec *sessionRec, st *sessionTrace) (*api.SessionV1, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.ts.URL+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	open := map[int]int{} // seq → queries of an unanswered mq_batch
	var done *api.SessionV1
	var answered time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		at := time.Now()
		var f api.FrameV1
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("stream: decode frame: %w", err)
		}
		st.span("frame.", f.Type, spanLearn, at, at)
		if rec.first < 0 {
			rec.first = at.Sub(start)
		}
		if done != nil {
			return nil, fmt.Errorf("stream: %s frame after the done frame", f.Type)
		}
		// Think time: from the latest answer to the next question or the
		// result, whichever the client receives first.
		if (f.Type == api.FrameMQBatch || f.Type == api.FrameDone) && !answered.IsZero() {
			rec.gaps = append(rec.gaps, ms(at.Sub(answered)))
			answered = time.Time{}
		}
		switch f.Type {
		case api.FrameMQBatch:
			if f.Batch == nil || len(f.Batch.Queries) == 0 {
				return nil, fmt.Errorf("stream: mq_batch %d without queries", f.Seq)
			}
			open[f.Seq] = len(f.Batch.Queries)
			rec.wireRounds++
		case api.FrameMQAnswers:
			n, ok := open[f.Seq]
			if !ok || f.Answers == nil || len(f.Answers.Answers) != n {
				return nil, fmt.Errorf("stream: mq_answers %d does not answer an open mq_batch", f.Seq)
			}
			delete(open, f.Seq)
			answered = at
		case api.FrameHypothesis:
		case api.FrameDone:
			if f.Session == nil {
				return nil, fmt.Errorf("stream: done frame without a session")
			}
			done = f.Session
		default:
			return nil, fmt.Errorf("stream: %s frame: %s", f.Type, f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	switch {
	case done == nil:
		return nil, fmt.Errorf("stream: ended without a done frame")
	case len(open) > 0:
		return nil, fmt.Errorf("stream: %d mq_batch frames never answered", len(open))
	case done.Stats == nil:
		return nil, fmt.Errorf("stream: done frame without stats")
	}
	return done, nil
}

// call makes one JSON request and decodes the response into out (when
// non-nil), failing on any status but want.
func (w *stream) call(ctx context.Context, method, path string, in any, want int, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.ts.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// counters reads the daemon's cumulative /metrics totals.
func (w *stream) counters(ctx context.Context) (counters, error) {
	var m api.MetricsV1
	if err := w.call(ctx, http.MethodGet, "/metrics", nil, http.StatusOK, &m); err != nil {
		return nil, err
	}
	hits := func(c api.CacheCounterV1) xq.CacheCounter { return xq.CacheCounter{Hits: c.Hits, Misses: c.Misses} }
	c := counters{
		"daemon.learn_ms": m.Learn.LatencyMS.Sum,
		"daemon.learns":   float64(m.Learn.LatencyMS.Count),
	}
	c.addHits("artifacts.lookup", hits(m.Artifacts.Lookups))
	c.addHits("artifacts.index", hits(m.Artifacts.Indexes))
	c.addHits("artifacts.plan", hits(m.Artifacts.Plans))
	x := m.XQCache
	for i, cc := range []api.CacheCounterV1{x.Path, x.Simple, x.Value, x.Extent, x.Relay, x.Plan, x.Arena, x.Compile} {
		c.addHits("xq.cache."+cacheNames[i], hits(cc))
	}
	s := m.Speculation
	c.addSpec(core.SpeculationStats{Prefetches: s.Prefetches, MirrorAnswers: s.MirrorAnswers, Kept: s.Kept, Discarded: s.Discarded})
	return c, nil
}

// close drains the daemon and stops the listener and client.
func (w *stream) close(ctx context.Context) error {
	err := w.srv.Shutdown(ctx)
	w.ts.Close()
	w.client.CloseIdleConnections()
	return err
}
