package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmp"
)

// readFrames consumes an NDJSON stream body until EOF (or read error,
// which cancellation tests expect) and returns every decoded frame.
func readFrames(t *testing.T, body *bufio.Scanner) []api.FrameV1 {
	t.Helper()
	var frames []api.FrameV1
	for body.Scan() {
		line := strings.TrimSpace(body.Text())
		if line == "" {
			continue
		}
		var f api.FrameV1
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("decode frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestStreamEndToEnd drives a full learn through the streaming
// endpoint: the NDJSON frames must open with an mq_batch, every
// mq_answers must answer a previously streamed mq_batch index-for-
// index, at least one hypothesis must arrive, and the stream must end
// with exactly one terminal done frame carrying the final session
// document with nonzero batched_mqs. The streamed dialogue counters
// must equal the serial run's — the wire protocol is an optimization,
// not a different learner.
func TestStreamEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSessions(t, ts.URL, 1)[0]

	serial, err := scenario.Run(context.Background(), xmp.Scenarios()[0], teacher.BestCase)
	if err != nil {
		t.Fatalf("serial reference run: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/stream", "application/json", nil)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}

	frames := readFrames(t, bufio.NewScanner(resp.Body))
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want at least mq_batch + mq_answers + done", len(frames))
	}
	if frames[0].Type != api.FrameMQBatch {
		t.Errorf("first frame type %q, want %q", frames[0].Type, api.FrameMQBatch)
	}

	batches := make(map[int]*api.MQBatchV1)
	answered := 0
	hypotheses := 0
	for i, f := range frames {
		if f.SchemaVersion != api.SchemaVersion {
			t.Errorf("frame %d: schema_version %d, want %d", i, f.SchemaVersion, api.SchemaVersion)
		}
		terminal := i == len(frames)-1
		switch f.Type {
		case api.FrameMQBatch:
			if f.Batch == nil || len(f.Batch.Queries) == 0 {
				t.Errorf("frame %d: mq_batch without queries", i)
				continue
			}
			batches[f.Seq] = f.Batch
		case api.FrameMQAnswers:
			b := batches[f.Seq]
			switch {
			case f.Answers == nil:
				t.Errorf("frame %d: mq_answers without answers", i)
			case b == nil:
				t.Errorf("frame %d: mq_answers seq %d answers no streamed mq_batch", i, f.Seq)
			case len(f.Answers.Answers) != len(b.Queries):
				t.Errorf("frame %d: %d answers for %d queries (seq %d)",
					i, len(f.Answers.Answers), len(b.Queries), f.Seq)
			default:
				answered++
			}
		case api.FrameHypothesis:
			if f.Hypothesis == nil || f.Hypothesis.XQI == "" {
				t.Errorf("frame %d: hypothesis without xqi", i)
			}
			hypotheses++
		case api.FrameDone:
			if !terminal {
				t.Errorf("frame %d: done before end of stream", i)
			}
		default:
			t.Errorf("frame %d: unexpected type %q", i, f.Type)
		}
	}
	if answered == 0 {
		t.Error("no mq_answers frame matched an mq_batch")
	}
	if hypotheses == 0 {
		t.Error("no hypothesis frame streamed")
	}

	last := frames[len(frames)-1]
	if last.Type != api.FrameDone || last.Session == nil {
		t.Fatalf("terminal frame %+v, want done with session", last)
	}
	// batched_mqs is a frozen V1 field that always reads zero: the
	// learner ships no membership query sets.
	if last.Session.State != "done" || last.Session.BatchedMQs != 0 {
		t.Errorf("terminal session state=%q batched_mqs=%d, want done with zero batched MQs",
			last.Session.State, last.Session.BatchedMQs)
	}
	if last.Session.Stats == nil {
		t.Fatal("terminal session missing stats")
	}
	st := serial.Stats.Totals()
	got := last.Session.Stats.Totals
	if got.MQ != st.MQ || got.CE != st.CE {
		t.Errorf("streamed dialogue MQ=%d CE=%d, serial MQ=%d CE=%d — batched run diverged",
			got.MQ, got.CE, st.MQ, st.CE)
	}

	// The done frame is terminal state, so a plain GET agrees with it
	// and the daemon metrics carry the protocol's transport counters.
	var sess api.SessionV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, &sess); status != http.StatusOK {
		t.Fatalf("get after stream: status %d", status)
	}
	if sess.State != "done" || sess.BatchedMQs != 0 {
		t.Errorf("get after stream: state=%q batched_mqs=%d, want done/0", sess.State, sess.BatchedMQs)
	}
	var m api.MetricsV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatal("metrics endpoint failed")
	}
	// The stream went through the fragment mirror; the frozen batch
	// counters read zero.
	if m.Speculation.Prefetches == 0 || m.Speculation.MirrorAnswers == 0 {
		t.Errorf("metrics speculation %+v, want nonzero mirror counters", m.Speculation)
	}
	if m.Speculation.BatchRounds != 0 || m.Speculation.BatchedMQ != 0 {
		t.Errorf("metrics speculation %+v, want zero batch counters", m.Speculation)
	}
}

// TestStreamBusyAndUnknown: the stream endpoint shares StartLearn's
// admission checks.
func TestStreamBusyAndUnknown(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	defer close(release)
	srv.mgr.learn = blockingLearn(release)
	id := createSessions(t, ts.URL, 1)[0]

	var apiErr api.ErrorV1
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/nope/stream", nil, &apiErr); status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
	var sess api.SessionV1
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/learn", nil, &sess); status != http.StatusAccepted {
		t.Fatalf("start learn: status %d", status)
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/stream", nil, &apiErr); status != http.StatusConflict {
		t.Errorf("stream while busy: status %d, want 409", status)
	}
}

// TestStreamCancelMidBatch hangs up the streaming client while the
// learn is mid-dialogue against a deliberately slow teacher. The
// request-scoped context must cancel the learn promptly, the session
// must settle in failed with a canceled error, and every goroutine the
// stream spawned must exit (the drain in newTestServer's cleanup hangs
// otherwise, and CI runs this package under -race).
func TestStreamCancelMidBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{TeacherLatency: 5 * time.Millisecond})
	id := createSessions(t, ts.URL, 1)[0]
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()

	// Read one frame so cancellation lands mid-batch, not pre-dialogue.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first frame before cancel: %v", sc.Err())
	}
	var first api.FrameV1
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("decode first frame: %v", err)
	}
	if first.Type != api.FrameMQBatch {
		t.Fatalf("first frame type %q, want %q", first.Type, api.FrameMQBatch)
	}
	cancel()

	// The session must settle failed; poll briefly since teardown is
	// asynchronous to the client's hangup.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sess api.SessionV1
		if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, &sess); status != http.StatusOK {
			t.Fatalf("get after cancel: status %d", status)
		}
		if sess.State == "failed" {
			if !strings.Contains(sess.Error, "cancel") {
				t.Errorf("failed session error %q, want a canceled error", sess.Error)
			}
			break
		}
		if sess.State == "done" {
			t.Fatal("session completed despite client hangup")
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %q after cancel", sess.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Goroutine count settles back near the pre-stream baseline once
	// the learn's workers exit; allow slack for the test server's own
	// connection handling.
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
