package xq

import (
	"unsafe"

	"repro/internal/xmldoc"
)

// The compile arena: reusable scratch chunks the plan compiler carves
// levelPlan/predPlan/atomPlan/stepPlan slices (and constant Value
// cells) from, instead of allocating one fresh slice per chain level,
// predicate, atom, and path of every compiled hypothesis node. The engine compiles fresh
// hypothesis trees constantly, so this per-fragment slice churn was the
// largest remaining profile entry on the compile side.
//
// Ownership contract (the compile-time sibling of execArena's, and
// enrolled in the same arenaalias analyzer): the carved slices alias
// the evaluator-owned chunks, and the compiled plans that store them
// share the chunks' lifetime exactly. The arena therefore resets only
// at the points where every evaluator-local plan is dropped — the
// planFor cache overflow, SetPlanCompilation(false), and
// InvalidateExtents — never while a plan that could still serve an
// extent holds a carve. A TreePlan built by NewTreePlan keeps the
// throwaway compiling evaluator's chunks alive for as long as the plan
// set itself lives; that evaluator is discarded unreset, so the shared
// plans can never be clobbered.
//
// Carves are bump allocations: a carve that fits the current chunk
// advances its length (a Compile cache hit); one that does not opens a
// fresh chunk (a miss), retiring the full chunk to whatever plans
// already alias it. Chunks are never grown with append — growth would
// move the backing array out from under earlier carves.

// Chunk capacities, in entries, grow geometrically per carver: the
// first chunk holds compileChunkMin entries and each fresh one doubles
// its predecessor up to compileChunkMax (a carve larger than that gets
// a chunk of its own size). A tree of a few nodes — the shape of every
// TreePlan the artifact store caches — then keeps a few KB of chunk
// alive rather than four 256-entry chunks (about 125 KB), while an
// evaluator compiling hypotheses all session soon carves from
// full-size chunks.
const (
	compileChunkMin = 8
	compileChunkMax = 256
)

// nextChunk returns the capacity of the chunk that replaces one of
// capacity prev for a carve of n entries.
func nextChunk(prev, n int) int {
	c := min(max(2*prev, compileChunkMin), compileChunkMax)
	return max(c, n)
}

type compileArena struct {
	levels []levelPlan
	preds  []predPlan
	atoms  []atomPlan
	steps  []stepPlan
	vals   []Value
	// probes and relays memoize, per predicate, a probe's class table
	// and a document-rooted relay set: a chain level recurs in the plan
	// of every node below it, and those plans share one of each. They
	// are fresh memory, like the plans' root candidates, and are
	// dropped with the plans at reset.
	probes map[probeKey]*classTable
	relays map[*Pred][]*xmldoc.Node
	// bytes sums the capacity, in bytes, of every chunk the arena has
	// opened. An arena that is never reset — NewTreePlan's — keeps every
	// one of them alive through its plans (TreePlan.ApproxBytes).
	bytes int
	// gen counts resets. A compiled handle that outlives its caller's
	// view of the plans (Conds, CondExtent) records the generation it
	// was carved in and recompiles when the arena has moved on.
	gen uint64
}

// reset truncates every carver to the start of its current chunk,
// zeroing the chunk so dropped plans' pointers do not linger. Callers
// must have dropped every evaluator-local plan first (see the
// ownership contract above).
func (a *compileArena) reset() {
	clear(a.levels[:cap(a.levels)])
	a.levels = a.levels[:0]
	clear(a.preds[:cap(a.preds)])
	a.preds = a.preds[:0]
	clear(a.atoms[:cap(a.atoms)])
	a.atoms = a.atoms[:0]
	a.steps = a.steps[:0]
	clear(a.vals[:cap(a.vals)])
	a.vals = a.vals[:0]
	a.probes, a.relays = nil, nil
	a.gen++
}

// carveLevels carves n zeroed levelPlan entries from the arena. The
// full-slice expression keeps a stray append from writing into the
// chunk's tail.
func (e *Evaluator) carveLevels(n int) []levelPlan {
	if n == 0 {
		return nil
	}
	a := &e.comp
	if len(a.levels)+n > cap(a.levels) {
		c := nextChunk(cap(a.levels), n)
		a.levels = make([]levelPlan, 0, c)
		a.bytes += c * int(unsafe.Sizeof(levelPlan{}))
		e.stats.Compile.Misses++
	} else {
		e.stats.Compile.Hits++
	}
	off := len(a.levels)
	a.levels = a.levels[:off+n]
	s := a.levels[off : off+n : off+n]
	clear(s)
	return s
}

// carvePreds carves n zeroed predPlan entries from the arena.
func (e *Evaluator) carvePreds(n int) []predPlan {
	if n == 0 {
		return nil
	}
	a := &e.comp
	if len(a.preds)+n > cap(a.preds) {
		c := nextChunk(cap(a.preds), n)
		a.preds = make([]predPlan, 0, c)
		a.bytes += c * int(unsafe.Sizeof(predPlan{}))
		e.stats.Compile.Misses++
	} else {
		e.stats.Compile.Hits++
	}
	off := len(a.preds)
	a.preds = a.preds[:off+n]
	s := a.preds[off : off+n : off+n]
	clear(s)
	return s
}

// carveAtoms carves n zeroed atomPlan entries from the arena.
func (e *Evaluator) carveAtoms(n int) []atomPlan {
	if n == 0 {
		return nil
	}
	a := &e.comp
	if len(a.atoms)+n > cap(a.atoms) {
		c := nextChunk(cap(a.atoms), n)
		a.atoms = make([]atomPlan, 0, c)
		a.bytes += c * int(unsafe.Sizeof(atomPlan{}))
		e.stats.Compile.Misses++
	} else {
		e.stats.Compile.Hits++
	}
	off := len(a.atoms)
	a.atoms = a.atoms[:off+n]
	s := a.atoms[off : off+n : off+n]
	clear(s)
	return s
}

// carveSteps carves n stepPlan entries from the arena; the caller
// fills every one.
func (e *Evaluator) carveSteps(n int) []stepPlan {
	if n == 0 {
		return nil
	}
	a := &e.comp
	if len(a.steps)+n > cap(a.steps) {
		c := nextChunk(cap(a.steps), n)
		a.steps = make([]stepPlan, 0, c)
		a.bytes += c * int(unsafe.Sizeof(stepPlan{}))
		e.stats.Compile.Misses++
	} else {
		e.stats.Compile.Hits++
	}
	off := len(a.steps)
	a.steps = a.steps[:off+n]
	return a.steps[off : off+n : off+n]
}

// carveVal carves one Value cell — the compiled constant operand's
// single-element constVals slice.
func (e *Evaluator) carveVal(v Value) []Value {
	a := &e.comp
	if len(a.vals)+1 > cap(a.vals) {
		c := nextChunk(cap(a.vals), 1)
		a.vals = make([]Value, 0, c)
		a.bytes += c * int(unsafe.Sizeof(Value{}))
		e.stats.Compile.Misses++
	} else {
		e.stats.Compile.Hits++
	}
	off := len(a.vals)
	a.vals = a.vals[:off+1]
	s := a.vals[off : off+1 : off+1]
	s[0] = v
	return s
}
