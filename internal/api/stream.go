package api

import "repro/internal/core"

// Frame types (FrameV1.Type). A stream is a sequence of NDJSON frames:
// any number of mq_batch / mq_answers / hypothesis frames followed by
// exactly one terminal done or error frame.
const (
	FrameMQBatch    = "mq_batch"
	FrameMQAnswers  = "mq_answers"
	FrameHypothesis = "hypothesis"
	FrameDone       = "done"
	FrameError      = "error"
)

// FrameV1 is one chunk of the streaming session endpoint
// (POST /v1/sessions/{id}/stream), serialized as one NDJSON line.
// Exactly one of Batch, Answers, Hypothesis, Session, or Error is set,
// according to Type. An mq_answers frame carries the Seq of the
// mq_batch frame it answers; all other frames carry a fresh Seq.
type FrameV1 struct {
	SchemaVersion int           `json:"schema_version"`
	Type          string        `json:"type"`
	Seq           int           `json:"seq"`
	Batch         *MQBatchV1    `json:"batch,omitempty"`
	Answers       *MQAnswersV1  `json:"answers,omitempty"`
	Hypothesis    *HypothesisV1 `json:"hypothesis,omitempty"`
	// Session is the terminal session document of a done frame.
	Session *SessionV1 `json:"session,omitempty"`
	// Error carries the learn error of a terminal error frame.
	Error string `json:"error,omitempty"`
}

// MQBatchV1 announces a query set leaving for the teacher: one
// human-readable rendering per question, in ask order.
type MQBatchV1 struct {
	Fragment string   `json:"fragment"`
	Queries  []string `json:"queries"`
}

// MQAnswersV1 delivers a batch's answers, aligned index-for-index with
// the Queries of the mq_batch frame sharing its Seq.
type MQAnswersV1 struct {
	Fragment string `json:"fragment"`
	Answers  []bool `json:"answers"`
}

// HypothesisV1 is an incremental hypothesis update: the partial
// XQ-Tree after one fragment finished learning.
type HypothesisV1 struct {
	Fragment string `json:"fragment"`
	XQI      string `json:"xqi"`
}

// SpeculationV1 mirrors core.SpeculationStats on the wire: the batched
// protocol's transport bookkeeping, disjoint from the dialogue counters
// in StatsV1 (which the protocol reproduces byte-for-byte). The fragment
// mirror is the protocol's only speculation: Prefetches and
// MirrorAnswers count it. Kept/Discarded and BatchRounds/BatchedMQ are
// always zero, kept only because V1 fields are frozen: the learner has
// one fill path and asks every membership query on its own, answered
// from the mirror, so it ships no query sets to count.
type SpeculationV1 struct {
	Prefetches    int `json:"prefetches"`
	MirrorAnswers int `json:"mirror_answers"`
	BatchRounds   int `json:"batch_rounds"`
	BatchedMQ     int `json:"batched_mq"`
	Kept          int `json:"kept"`
	Discarded     int `json:"discarded"`
}

// NewSpeculationV1 converts a session's transport counters.
func NewSpeculationV1(s core.SpeculationStats) SpeculationV1 {
	return SpeculationV1{
		Prefetches:    s.Prefetches,
		MirrorAnswers: s.MirrorAnswers,
		Kept:          s.Kept,
		Discarded:     s.Discarded,
	}
}

// NewFrameV1 converts one core protocol event into its wire frame.
func NewFrameV1(ev core.Event) FrameV1 {
	f := FrameV1{SchemaVersion: SchemaVersion, Type: string(ev.Kind), Seq: ev.Seq}
	switch ev.Kind {
	case core.EventMQBatch:
		f.Batch = &MQBatchV1{Fragment: ev.Fragment, Queries: ev.Queries}
	case core.EventMQAnswers:
		f.Answers = &MQAnswersV1{Fragment: ev.Fragment, Answers: ev.Answers}
	case core.EventHypothesis:
		f.Hypothesis = &HypothesisV1{Fragment: ev.Fragment, XQI: ev.XQI}
	}
	return f
}

// NewDoneFrameV1 builds the terminal frame of a successful stream.
func NewDoneFrameV1(seq int, s SessionV1) FrameV1 {
	return FrameV1{SchemaVersion: SchemaVersion, Type: FrameDone, Seq: seq, Session: &s}
}

// NewErrorFrameV1 builds the terminal frame of a failed stream.
func NewErrorFrameV1(seq int, err string) FrameV1 {
	return FrameV1{SchemaVersion: SchemaVersion, Type: FrameError, Seq: seq, Error: err}
}
