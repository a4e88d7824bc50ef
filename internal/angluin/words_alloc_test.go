//go:build !race

package angluin

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/pathre"
)

// TestWarmLearnAllocatesNoPage pins the paged trie's reuse: once one
// Learn has released its Words, a second Learn of the same size draws
// every node page and row page it needs from the pools and allocates
// none: the pools' New functions are wrapped to count misses. The
// garbage collector is off (pooled pages survive only two collections)
// and the test runs on one P, so every page the first Learn released
// sits in the pool the second one draws from. (Tagged out under -race,
// whose pools drop items at random.)
func TestWarmLearnAllocatesNoPage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alpha := make([]string, 77)
	for i := range alpha {
		alpha[i] = fmt.Sprintf("l%02d", i)
	}
	target := pathre.Compile(pathre.MustParsePath("/l00/l01//l02/(l03|l04)/l05"), alpha)
	learn := func() (nodePages, rowPages int) {
		words := NewWords(nil, alpha)
		defer words.Release()
		if _, _, err := Learn(alpha, &perfectTeacher{target}, WithWords(words)); err != nil {
			t.Fatal(err)
		}
		return len(words.nodes), len(words.rows)
	}
	learn()
	var made [2]int
	for i, pool := range []*sync.Pool{&nodePages, &rowPages} {
		newPage := pool.New
		defer func() { pool.New = newPage }()
		pool.New = func() any { made[i]++; return newPage() }
	}
	np, rp := learn()
	if np < 2 || rp < 2 {
		t.Fatalf("Learn used %d node pages and %d row pages, want >= 2 of each for a meaningful pin", np, rp)
	}
	if made != [2]int{} {
		t.Fatalf("warm Learn allocated %d node pages and %d row pages, want 0", made[0], made[1])
	}
}

// TestIDWaveAllocs pins the cost of the one fill path: on warm
// scratch, a wave of row fills — every row of S and of S·Σ, the sink
// rows of a deduced dead region included, with every sink cell
// reported — asks by word ID, builds no word and allocates nothing.
// (Tagged out under -race, whose instrumentation allocates.)
func TestIDWaveAllocs(t *testing.T) {
	alpha := symbols(77)
	target := deadRegionTarget(rand.New(rand.NewSource(7)), alpha)
	words := NewWords(nil, alpha)
	defer words.Release()
	teach := deducingTeacher{&regionTeacher{target: target, words: words}}
	l, err := newLearner(alpha, teach, WithWords(words))
	if err != nil {
		t.Fatal(err)
	}
	l.adopt(new(scratch))
	l.grow()
	// S = {ε, s000, s000·s001}, E = {ε, s002, s001·s002}.
	l.s = l.s[:0]
	l.addPrefix(0)
	l.addPrefix(l.internWord(alpha[:1]))
	l.addPrefix(l.internWord(alpha[:2]))
	l.e = [][]string{{}, {alpha[2]}, {alpha[1], alpha[2]}}
	l.eSyms = [][]int32{{}, {words.alpha[2]}, {words.alpha[1], words.alpha[2]}}
	sinks := 0
	wave := func() {
		clear(l.ans)
		for i := range l.rowEnts {
			l.rowEnts[i].bits = l.rowEnts[i].bits[:0]
		}
		sinks = 0
		for _, sid := range l.s {
			if _, err := l.row(sid); err != nil {
				t.Fatal(err)
			}
			for ai := range alpha {
				if l.ext(sid, ai) < 0 {
					l.deduceSink(sid, ai, 0)
					sinks++
				}
				if r, err := l.extRow(sid, ai); err != nil || len(r) != len(l.e) {
					t.Fatalf("extension row %q of %d columns (err %v), want %d", r, len(r), err, len(l.e))
				}
			}
		}
	}
	wave() // grows the trie, the rest intern and every buffer
	if allocs := testing.AllocsPerRun(20, wave); allocs != 0 {
		t.Errorf("a warm wave of row fills allocates %.1f objects, want 0", allocs)
	}
	if l.stats.MembershipQueries == 0 || sinks == 0 || len(teach.dead) == 0 {
		t.Fatalf("the wave asked %d words and read %d sink rows reporting %d dead words, want some of each",
			l.stats.MembershipQueries, sinks, len(teach.dead))
	}
	if len(l.wb) != 0 {
		t.Errorf("an ID teacher was asked through built words: wb %d", len(l.wb))
	}
}
