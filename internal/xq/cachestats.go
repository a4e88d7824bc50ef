package xq

// CacheCounter is one cache's hit/miss tally.
type CacheCounter struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (c CacheCounter) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// add folds another counter in.
func (c CacheCounter) add(o CacheCounter) CacheCounter {
	return CacheCounter{Hits: c.Hits + o.Hits, Misses: c.Misses + o.Misses}
}

// CacheStats are the acceleration layer's lookup counters, one per
// cache (see accel.go). A miss is a lookup that fell through to the
// naive computation and populated the cache; lookups made while
// acceleration is off are not counted. The counters never affect
// results — they exist so a serving layer can report cache
// effectiveness per session and in aggregate.
type CacheStats struct {
	// Path counts PathNodes memo lookups (per start node + expression).
	Path CacheCounter
	// Simple counts EvalSimplePath memo lookups. Only the interpreted
	// leg has the memo: compiled plans walk operand paths over the index
	// columns, so on the default path this stays near zero.
	Simple CacheCounter
	// Value always reads zero: node values are a column of the shared
	// Index (index.go), so there is no per-evaluator memo to count. The
	// field stays for the frozen wire shape (api.CacheStatsV1).
	Value CacheCounter
	// Extent counts extent memo lookups (per query node + pinned env).
	Extent CacheCounter
	// Relay counts equality-join relay-index lookups, on the
	// interpreted leg only: compiled plans probe value-class tables
	// instead (exec.go).
	Relay CacheCounter
	// Plan counts compiled-plan lookups: a hit served an extent from an
	// already compiled program (shared or local), a miss compiled one
	// (plan.go).
	Plan CacheCounter
	// Arena counts executor runs by arena reuse: a hit ran entirely in
	// the existing scratch buffers, a miss had to grow one (exec.go).
	Arena CacheCounter
	// Compile counts compile-arena carves: a hit carved plan slices
	// from the current scratch chunk, a miss opened a fresh chunk
	// (compilearena.go).
	Compile CacheCounter
}

// Add returns the element-wise sum of two stat snapshots, for
// aggregating across evaluators.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Path:    s.Path.add(o.Path),
		Simple:  s.Simple.add(o.Simple),
		Value:   s.Value.add(o.Value),
		Extent:  s.Extent.add(o.Extent),
		Relay:   s.Relay.add(o.Relay),
		Plan:    s.Plan.add(o.Plan),
		Arena:   s.Arena.add(o.Arena),
		Compile: s.Compile.add(o.Compile),
	}
}

// CacheStats returns a snapshot of the evaluator's cache counters. The
// evaluator is single-goroutine (see the Session concurrency model), so
// the snapshot is taken without synchronization; callers aggregating
// across sessions must read it from the goroutine that ran the
// evaluation or after the run completed.
func (e *Evaluator) CacheStats() CacheStats { return e.stats }
