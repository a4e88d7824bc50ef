// Package api defines the versioned, JSON-stable wire types shared by
// every serializing surface of the system: the xlearnerd HTTP daemon,
// the CLI report/-json output, and the committed benchmark baseline.
//
// Versioning policy (see DESIGN.md, "API versioning"): every top-level
// document carries a schema_version field. Within one version, fields
// may be added but never renamed, re-typed, or removed, and existing
// field semantics never change; any breaking change mints a new *V2
// type (and, for the daemon, a new /v2 route prefix) while the V1 types
// keep serving. The JSON field names below are therefore a contract —
// tests snapshot them — and the types deliberately contain only plain
// data, no behavior beyond conversions from the internal structs.
package api

import (
	"repro/internal/core"
	"repro/internal/xq"
)

// SchemaVersion is the current wire-schema generation stamped into
// every V1 document. Version 2 added the additive artifact-store
// surface: SessionV1.ArtifactHash, MetricsV1.Artifacts, and the
// BenchRecordV1 allocation columns (all omitted-or-zero for readers of
// version 1, per the additive-only policy above). Version 3 adds the
// plan/execute counters: CacheStatsV1.Plan/.Arena and
// ArtifactStoreV1.Plans (additive again — absent means the serving
// build predates compiled plans). Version 4 adds the streaming session
// surface: the FrameV1 NDJSON envelope and its subdocuments,
// SessionV1.BatchedMQs, and MetricsV1.Speculation (additive — absent
// means the serving build predates the batched teacher protocol).
// Version 5 adds the profile-guided hot-path counters:
// CacheStatsV1.Compile (plan-compile arena carves) and
// ArtifactStoreV1.Symtabs (shared learner symbol-table reuse), both
// additive — absent means the serving build predates the compile arena
// and the bundle-shared symbol table.
const SchemaVersion = 5

// ErrorV1 is the uniform error envelope: every non-2xx daemon response
// body is one of these.
type ErrorV1 struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	// Status repeats the HTTP status code so clients reading a relayed
	// body (logs, queues) keep the classification.
	Status int `json:"status"`
}

// SessionV1 is one learning session as the daemon reports it.
type SessionV1 struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	// Scenario names the registered scenario the session learns, or
	// "upload" for a posted SpecV1.
	Scenario string `json:"scenario"`
	// State is one of idle, queued, learning, done, failed.
	State           string `json:"state"`
	CreatedAtUnixMS int64  `json:"created_at_unix_ms"`
	// ArtifactHash is the content hash keying the session's shared
	// artifact bundle (document, index, truth extents) in the daemon's
	// cross-session store; two sessions reporting the same hash share
	// those immutable artifacts.
	ArtifactHash string `json:"artifact_hash,omitempty"`
	// Error carries the learn error of a failed session.
	Error string `json:"error,omitempty"`
	// Verified and Stats are set once the session is done.
	Verified *bool    `json:"verified,omitempty"`
	Stats    *StatsV1 `json:"stats,omitempty"`
	// BatchedMQs (schema version 4) is always zero and so omitted: the
	// learner ships no membership query sets (see SpeculationV1). The
	// field stays because V1 fields are frozen.
	BatchedMQs int `json:"batched_mqs,omitempty"`
}

// SessionListV1 wraps the session collection.
type SessionListV1 struct {
	SchemaVersion int         `json:"schema_version"`
	Sessions      []SessionV1 `json:"sessions"`
}

// FragmentStatsV1 mirrors core.FragmentStats on the wire.
type FragmentStatsV1 struct {
	Var             string `json:"var"`
	TemplatePath    string `json:"template_path,omitempty"`
	MQ              int    `json:"mq"`
	CE              int    `json:"ce"`
	CB              int    `json:"cb"`
	CBTerms         int    `json:"cb_terms"`
	OB              int    `json:"ob"`
	ReducedR1       int    `json:"reduced_r1"`
	ReducedR2       int    `json:"reduced_r2"`
	ReducedBoth     int    `json:"reduced_both"`
	ReducedTotal    int    `json:"reduced_total"`
	Restarts        int    `json:"restarts"`
	ContextSwitches int    `json:"context_switches"`
	PathStates      int    `json:"path_states"`
}

// StatsV1 mirrors core.Stats on the wire, with the totals precomputed
// so every consumer sums the same way.
type StatsV1 struct {
	SchemaVersion int               `json:"schema_version"`
	DnD           int               `json:"dnd"`
	DnDTerms      int               `json:"dnd_terms"`
	Fragments     []FragmentStatsV1 `json:"fragments"`
	Totals        FragmentStatsV1   `json:"totals"`
}

// TreeV1 is a learned query on the wire: both renderings of the one
// tree (the XQI tree form and the nested XQuery form, which round-trips
// through xq.ParseQuery).
type TreeV1 struct {
	SchemaVersion int    `json:"schema_version"`
	XQI           string `json:"xqi"`
	XQuery        string `json:"xquery"`
}

// ResultV1 is one completed learning run: what the CLI's -json mode
// emits and what a daemon client assembles from the session + tree
// endpoints.
type ResultV1 struct {
	SchemaVersion int      `json:"schema_version"`
	Scenario      string   `json:"scenario"`
	Verified      bool     `json:"verified"`
	Stats         *StatsV1 `json:"stats"`
	Tree          *TreeV1  `json:"tree"`
}

// NewFragmentStatsV1 converts one fragment's counters.
func NewFragmentStatsV1(f core.FragmentStats) FragmentStatsV1 {
	return FragmentStatsV1{
		Var:             f.Var,
		TemplatePath:    f.TemplatePath,
		MQ:              f.MQ,
		CE:              f.CE,
		CB:              f.CB,
		CBTerms:         f.CBTerms,
		OB:              f.OB,
		ReducedR1:       f.ReducedR1,
		ReducedR2:       f.ReducedR2,
		ReducedBoth:     f.ReducedBoth,
		ReducedTotal:    f.ReducedTotal,
		Restarts:        f.Restarts,
		ContextSwitches: f.ContextSwitches,
		PathStates:      f.PathStates,
	}
}

// NewStatsV1 converts a session's interaction statistics. A nil input
// yields nil, so callers can pass a not-yet-available Stats through.
func NewStatsV1(s *core.Stats) *StatsV1 {
	if s == nil {
		return nil
	}
	out := &StatsV1{
		SchemaVersion: SchemaVersion,
		DnD:           s.DnD,
		DnDTerms:      s.DnDTerms,
		Totals:        NewFragmentStatsV1(s.Totals()),
	}
	for _, f := range s.Fragments {
		out.Fragments = append(out.Fragments, NewFragmentStatsV1(f))
	}
	return out
}

// NewTreeV1 renders a learned tree into its wire form; nil in, nil out.
func NewTreeV1(t *xq.Tree) *TreeV1 {
	if t == nil {
		return nil
	}
	return &TreeV1{SchemaVersion: SchemaVersion, XQI: t.String(), XQuery: t.XQueryString()}
}

// NewResultV1 assembles the completed-run document.
func NewResultV1(scenarioID string, verified bool, t *xq.Tree, s *core.Stats) *ResultV1 {
	return &ResultV1{
		SchemaVersion: SchemaVersion,
		Scenario:      scenarioID,
		Verified:      verified,
		Stats:         NewStatsV1(s),
		Tree:          NewTreeV1(t),
	}
}
