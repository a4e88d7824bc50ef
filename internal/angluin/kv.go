package angluin

// The Kearns-Vazirani classification-tree learner: the classic
// alternative to L*'s observation table (Kearns & Vazirani, "An
// Introduction to Computational Learning Theory", ch. 8). It maintains
// a binary tree whose internal nodes are distinguishing suffixes and
// whose leaves are access strings; membership queries sift words down
// the tree. KV typically asks far fewer membership queries than L*
// (no table closure over the whole alphabet at every step) at the cost
// of more equivalence queries — the trade-off the learner ablation
// benchmark measures.

import (
	"fmt"

	"repro/internal/pathre"
)

// ctNode is a classification-tree node. Words are kept as IDs in the
// learner's Words: a sift probe is the access or sifted word's node
// walked along the suffix's symbol IDs, so no probe word is built
// unless a plain Teacher must be asked it.
type ctNode struct {
	// suffix labels internal nodes, as symbol IDs (empty for ε).
	suffix []int32
	// access labels leaves, as a word ID.
	access int32
	// yes/no children by membership of access·suffix.
	yes, no *ctNode
	parent  *ctNode
}

func (n *ctNode) isLeaf() bool { return n.yes == nil && n.no == nil }

// kvLearner carries the algorithm state. KV's sift chain is adaptive —
// each probe depends on the previous answer — so KV, like L*, asks
// every probe on its own.
type kvLearner struct {
	alphabet []string
	teacher  Teacher
	// ids is teacher's IDTeacher form when implemented (see Learn).
	ids IDTeacher
	// ded is the teacher's dead region (see Deducer): probes in it are
	// No without a node or a question.
	ded Deducer
	// words interns every probe; cache is keyed by its IDs.
	words   *Words
	maxEQ   int
	initial []string
	// wb is the word scratch for the plain Teacher form.
	wb []string

	root  *ctNode
	cache map[int32]bool
	stats Stats
}

// LearnKV runs the Kearns-Vazirani algorithm against the teacher.
// Options are shared with Learn; WithInitialExample seeds the first
// counterexample-style refinement.
func LearnKV(alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	l, err := newLearner(alphabet, t, opts...)
	if err != nil {
		return nil, Stats{}, err
	}
	k := &kvLearner{
		alphabet: l.alphabet,
		teacher:  t,
		ids:      l.ids,
		ded:      l.ded,
		words:    l.tr,
		maxEQ:    l.maxEQ,
		initial:  l.initial,
		cache:    map[int32]bool{},
	}
	if k.words == nil {
		k.words = NewWords(nil, k.alphabet)
		defer k.words.Release()
	}
	return k.run()
}

// member answers a membership query for word id: No for a word in the
// dead region, else from the cache or the teacher.
func (k *kvLearner) member(id int32) (bool, error) {
	if key, dead := k.words.key(id); dead {
		k.words.deduce(k.ded, key)
		return false, nil
	}
	if v, ok := k.cache[id]; ok {
		return v, nil
	}
	return k.ask(id)
}

// ask puts one membership query to the teacher — by ID when the teacher
// takes one, else as the materialized word — and commits the answer.
func (k *kvLearner) ask(id int32) (bool, error) {
	var v bool
	var err error
	if k.ids != nil {
		v, err = k.ids.MemberID(id)
	} else {
		k.wb = k.words.AppendWord(k.wb[:0], id)
		v, err = k.teacher.Member(k.wb)
	}
	if err != nil {
		return false, err
	}
	k.stats.MembershipQueries++
	k.cache[id] = v
	return v, nil
}

// probe answers the membership of the word id·suffix: No when the word
// lies in the dead region, reporting it to the Deducer on first sight,
// else through member.
func (k *kvLearner) probe(id int32, suffix []int32) (bool, error) {
	pid, key := k.words.cell(id, suffix, k.ded)
	if pid < 0 {
		k.words.deduce(k.ded, key)
		return false, nil
	}
	return k.member(pid)
}

// sift walks word wid down the classification tree to its leaf.
func (k *kvLearner) sift(wid int32) (*ctNode, error) {
	cur := k.root
	for !cur.isLeaf() {
		v, err := k.probe(wid, cur.suffix)
		if err != nil {
			return nil, err
		}
		if v {
			cur = cur.yes
		} else {
			cur = cur.no
		}
	}
	return cur, nil
}

func (k *kvLearner) run() (*pathre.DFA, Stats, error) {
	// Bootstrap with a single leaf (the empty access string): the first
	// counterexample splits it by the empty suffix, creating the
	// canonical accept/reject root.
	k.root = &ctNode{access: 0}
	if k.initial != nil {
		// Seed the tree as if the dropped example's path were a first
		// positive counterexample (mirrors WithInitialExample for L*):
		// only useful when it actually distinguishes.
		iid := k.words.internVia(k.initial, k.ded)
		mi, err := k.member(iid)
		if err != nil {
			return nil, k.stats, err
		}
		me, err := k.member(0)
		if err != nil {
			return nil, k.stats, err
		}
		if mi != me {
			if err := k.split(k.root, iid, nil); err != nil {
				return nil, k.stats, err
			}
		}
	}

	for eq := 0; eq < k.maxEQ; eq++ {
		h, leaves, err := k.hypothesis()
		if err != nil {
			return nil, k.stats, err
		}
		k.stats.EquivalenceQueries++
		k.stats.HypothesisStates = h.NumStates()
		ce, ok, err := k.teacher.Equivalent(h)
		if err != nil {
			return nil, k.stats, err
		}
		if ok {
			return h, k.stats, nil
		}
		k.stats.Counterexamples++
		if ce == nil {
			return nil, k.stats, fmt.Errorf("angluin: KV teacher rejected hypothesis without a counterexample")
		}
		inTarget, err := k.member(k.words.internVia(ce, k.ded))
		if err != nil {
			return nil, k.stats, err
		}
		if h.Accepts(ce) == inTarget {
			return nil, k.stats, fmt.Errorf("angluin: KV counterexample %v does not distinguish", ce)
		}
		if err := k.process(ce, h, leaves); err != nil {
			return nil, k.stats, err
		}
	}
	return nil, k.stats, fmt.Errorf("angluin: KV exceeded %d equivalence queries", k.maxEQ)
}

// hypothesis builds the DFA whose states are the leaves.
func (k *kvLearner) hypothesis() (*pathre.DFA, []*ctNode, error) {
	var leaves []*ctNode
	var collect func(n *ctNode)
	collect = func(n *ctNode) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			leaves = append(leaves, n)
			return
		}
		collect(n.yes)
		collect(n.no)
	}
	collect(k.root)
	index := map[*ctNode]int{}
	for i, l := range leaves {
		index[l] = i
	}
	d := pathre.NewDFA(k.alphabet, len(leaves))
	for i, l := range leaves {
		acc, err := k.member(l.access)
		if err != nil {
			return nil, nil, err
		}
		d.Accept[i] = acc
		for ai, a := range k.alphabet {
			target, err := k.sift(k.words.extend(l.access, k.words.alpha[ai], k.ded))
			if err != nil {
				return nil, nil, err
			}
			d.Trans[i][d.SymIndex(a)] = index[target]
		}
	}
	start, err := k.sift(0)
	if err != nil {
		return nil, nil, err
	}
	d.Start = index[start]
	return d, leaves, nil
}

// process refines the tree with a counterexample: find the first
// position where the hypothesis state's access string and the sifted
// leaf diverge, and split the predecessor leaf with a new
// distinguishing suffix.
func (k *kvLearner) process(ce []string, h *pathre.DFA, leaves []*ctNode) error {
	// Hypothesis states along ce, as leaves.
	hypLeaf := make([]*ctNode, len(ce)+1)
	q := h.Start
	hypLeaf[0] = leaves[q]
	for i, a := range ce {
		q = h.Trans[q][h.SymIndex(a)]
		hypLeaf[i+1] = leaves[q]
	}
	syms := k.words.resolve(nil, ce)
	// prev and id are the word IDs of ce[:i-1] and ce[:i].
	prev, id := int32(0), int32(0)
	for i := 1; i <= len(ce); i++ {
		prev, id = id, k.words.extend(id, syms[i-1], k.ded)
		sifted, err := k.sift(id)
		if err != nil {
			return err
		}
		if sifted == hypLeaf[i] {
			continue
		}
		// Diverged at i: split the leaf holding hypLeaf[i-1]'s access
		// string. New access string: ce[:i-1]; new distinguisher:
		// ce[i-1] · d where d labels the least common ancestor of
		// sifted and hypLeaf[i] — but sift gives us the exact
		// distinguishing suffix directly: the suffix at the node where
		// the two leaves' paths diverge.
		d := k.lcaSuffix(sifted, hypLeaf[i])
		newSuffix := append([]int32{syms[i-1]}, d...)
		return k.split(hypLeaf[i-1], prev, newSuffix)
	}
	// The hypothesis path agrees everywhere but classification differs:
	// split the final leaf by ε... this only occurs with a single-leaf
	// tree (before the first refinement).
	return k.split(hypLeaf[len(ce)], id, nil)
}

// lcaSuffix returns the distinguishing suffix at the least common
// ancestor of two leaves.
func (k *kvLearner) lcaSuffix(a, b *ctNode) []int32 {
	depth := func(n *ctNode) int {
		d := 0
		for cur := n; cur.parent != nil; cur = cur.parent {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	x, y := a, b
	for da > db {
		x = x.parent
		da--
	}
	for db > da {
		y = y.parent
		db--
	}
	for x != y {
		x = x.parent
		y = y.parent
	}
	return x.suffix
}

// split turns leaf (with existing access string) into an internal node
// distinguishing it from the new access string, word newAccess, by the
// suffix.
func (k *kvLearner) split(leaf *ctNode, newAccess int32, suffix []int32) error {
	oldAccess := leaf.access
	internal := leaf
	internal.suffix = append([]int32(nil), suffix...)
	oldLeaf := &ctNode{access: oldAccess, parent: internal}
	newLeaf := &ctNode{access: newAccess, parent: internal}
	v, err := k.probe(oldAccess, suffix)
	if err != nil {
		return err
	}
	if v {
		internal.yes, internal.no = oldLeaf, newLeaf
	} else {
		internal.no, internal.yes = oldLeaf, newLeaf
	}
	return nil
}
