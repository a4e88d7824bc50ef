//go:build !race

package angluin

import (
	"fmt"
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

// TestIDWaveAllocs pins the ID seam's wave cost: on warm scratch, a
// prefill wave to an ID batch teacher walks each cell once, fills the
// rows, and allocates nothing; no word is built for the teacher, so the
// word scratch stays empty. (Tagged out under -race, whose
// instrumentation allocates.)
func TestIDWaveAllocs(t *testing.T) {
	alpha := symbols(77)
	target := pathre.Compile(pathre.MustParsePath("/s000/s001//s002"), alpha)
	words := NewWords(nil, alpha)
	defer words.Release()
	teach := &idBatchTeacher{perfectTeacher: perfectTeacher{target}, words: words}
	l, err := newLearner(alpha, teach, WithWords(words))
	if err != nil {
		t.Fatal(err)
	}
	l.adopt(new(scratch))
	l.grow()
	// S = {ε, s000, s000·s001}, E = {ε, s002, s001·s002}.
	l.s = append(l.s[:0], 0)
	l.rowEnt(0).inS = true
	l.addPrefix(l.internWord(alpha[:1]))
	l.addPrefix(l.internWord(alpha[:2]))
	l.e = [][]string{{}, {alpha[2]}, {alpha[1], alpha[2]}}
	l.eSyms = [][]int32{{}, {words.alpha[2]}, {words.alpha[1], words.alpha[2]}}
	wave := func() {
		clear(l.ans)
		for i := range l.rowEnts {
			l.rowEnts[i].bits = l.rowEnts[i].bits[:0]
		}
		l.prefilled = 0
		if err := l.prefill(); err != nil {
			t.Fatal(err)
		}
	}
	wave() // grows the trie and every buffer
	queries := l.stats.BatchedQueries
	if allocs := testing.AllocsPerRun(20, wave); allocs != 0 {
		t.Errorf("a warm wave of %d ID queries allocates %.1f objects, want 0", queries, allocs)
	}
	if queries == 0 {
		t.Fatal("the wave asked nothing")
	}
	if len(l.wvSyms) != 0 || cap(l.wvSyms) != 0 || len(l.wvWords) != 0 || len(l.wb) != 0 {
		t.Errorf("ID waves built words: wvSyms %d/%d, wvWords %d, wb %d",
			len(l.wvSyms), cap(l.wvSyms), len(l.wvWords), len(l.wb))
	}
	for _, sid := range l.s {
		for ai := range alpha {
			id := l.extID(sid, ai)
			if got := len(l.rowEnts[l.rowOf[id]].bits); got != len(l.e) {
				t.Fatalf("row %v has %d of %d columns after the wave", words.Word(id), got, len(l.e))
			}
		}
	}
}
