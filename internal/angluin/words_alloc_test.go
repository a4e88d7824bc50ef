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
