package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/api"
	"repro/internal/artifacts"
	"repro/internal/scenario"
	"repro/internal/teacher"
)

// routes builds the daemon's HTTP surface on Go 1.22 method+wildcard
// mux patterns. All error responses flow through writeError (see
// errors.go); handlers never pick status codes themselves.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/learn", s.handleLearn)
	mux.HandleFunc("POST /v1/sessions/{id}/stream", s.handleLearnStream)
	mux.HandleFunc("GET /v1/sessions/{id}/tree", s.handleTree)
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	if s.cfg.EnablePprof {
		// Registered explicitly rather than via the package's init side
		// effect on http.DefaultServeMux, so profiling is confined to
		// this mux and only when opted in (see Config.EnablePprof).
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total, learning, draining := s.mgr.counts()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, api.HealthV1{
		SchemaVersion: api.SchemaVersion,
		Status:        status,
		Sessions:      total,
		Learning:      learning,
		UptimeMS:      s.mgr.now().Sub(s.started).Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.wire(s.mgr.byState(), api.NewArtifactStoreV1(s.store.Stats())))
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionV1
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decode body: %w", ErrBadRequest, err))
		return
	}
	pol := teacher.BestCase
	switch req.Policy {
	case "", "best":
	case "worst":
		pol = teacher.WorstCase
	default:
		writeError(w, fmt.Errorf("%w: policy %q (want best or worst)", ErrBadRequest, req.Policy))
		return
	}

	scenarioID := req.Scenario
	scn := s.scenarios[req.Scenario]
	var bundle *artifacts.Bundle
	switch {
	case req.Scenario != "" && req.Spec != nil:
		writeError(w, fmt.Errorf("%w: scenario and spec are mutually exclusive", ErrBadRequest))
		return
	case req.Scenario != "" && scn == nil:
		writeError(w, fmt.Errorf("%w: %q", ErrUnknownScenario, req.Scenario))
		return
	case req.Scenario == "" && req.Spec == nil:
		writeError(w, fmt.Errorf("%w: need a scenario id or an uploaded spec", ErrBadRequest))
		return
	case req.Spec != nil:
		var err error
		if scn, bundle, err = scenarioFromSpec(r.Context(), s.store, req.Spec); err != nil {
			writeError(w, err)
			return
		}
		scenarioID = uploadScenarioID
	default:
		// Registry path: the bundle is keyed by scenario id, so every
		// session of one benchmark scenario shares its document, index,
		// and truth extents for the daemon's lifetime.
		var err error
		if bundle, err = scenario.ResolveBundle(r.Context(), s.store, scn); err != nil {
			writeError(w, err)
			return
		}
	}

	sess, err := s.mgr.Create(scenarioID, scn, bundle, pol, req.Options.CoreOptions())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.SessionListV1{
		SchemaVersion: api.SchemaVersion,
		Sessions:      s.mgr.List(),
	})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	sess, err := s.mgr.StartLearn(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess)
}

// handleLearnStream starts a learn over the batched + mirrored
// teacher protocol and streams its dialogue live as chunked NDJSON:
// one api.FrameV1 per line — mq_batch / mq_answers / hypothesis frames
// while the session learns, then exactly one terminal done frame
// (carrying the final session document) or error frame. The learn is
// coupled to the connection: a client that hangs up cancels it.
func (s *Server) handleLearnStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, err := s.mgr.StartLearnStream(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	seq := -1
	for ev := range ch {
		if ev.Seq > seq {
			seq = ev.Seq
		}
		// Encode appends the newline that delimits NDJSON frames. An
		// encode error means the client is gone; keep draining so the
		// canceled learn can finish and record its terminal state.
		_ = enc.Encode(api.NewFrameV1(ev))
		if fl != nil {
			fl.Flush()
		}
	}
	// The channel closed after the terminal state was recorded, so this
	// snapshot is final.
	snap, err := s.mgr.Get(id)
	var frame api.FrameV1
	switch {
	case err != nil:
		frame = api.NewErrorFrameV1(seq+1, err.Error())
	case snap.State == stateDone.String():
		frame = api.NewDoneFrameV1(seq+1, snap)
	default:
		frame = api.NewErrorFrameV1(seq+1, snap.Error)
	}
	_ = enc.Encode(frame)
	if fl != nil {
		fl.Flush()
	}
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	tree, err := s.mgr.Tree(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
