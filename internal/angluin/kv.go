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

type ctNode struct {
	// suffix labels internal nodes; nil for leaves.
	suffix []string
	// access labels leaves.
	access []string
	// yes/no children by membership of access·suffix.
	yes, no *ctNode
	parent  *ctNode
}

func (n *ctNode) isLeaf() bool { return n.yes == nil && n.no == nil }

// kvLearner carries the algorithm state.
type kvLearner struct {
	alphabet []string
	teacher  Teacher
	// ids is teacher's IDTeacher form when implemented (see Learn).
	ids IDTeacher
	// batch/bids/spec are the teacher's batch-protocol forms (see
	// batch.go). KV's sift chain is adaptive — each probe depends on the
	// previous answer — so unlike L*'s table fills the probes cannot be
	// merged into multi-query sets without reordering the dialogue;
	// instead each probe ships as a single-query batch and, while it is
	// in flight, the learner speculatively precomputes both successor
	// probes (the yes- and no-child suffixes) against the teacher's
	// local knowledge, reconciling parked values when the probes are
	// actually asked.
	batch BatchTeacher
	bids  IDBatchTeacher
	spec  Speculator
	// words interns every probe; cache and parked are keyed by its IDs.
	words *Words
	// parked holds speculated successor-probe answers by word ID,
	// reconciled (kept/discarded) when the probe is asked; leftovers
	// are discarded when the run ends.
	parked  map[int32]bool
	maxEQ   int
	initial []string

	root  *ctNode
	cache map[int32]bool
	stats Stats
}

// LearnKV runs the Kearns-Vazirani algorithm against the teacher.
// Options are shared with Learn; WithInitialExample seeds the first
// counterexample-style refinement.
func LearnKV(alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	shim := &learner{maxEQ: 1000}
	for _, o := range opts {
		o(shim)
	}
	k := &kvLearner{
		alphabet: append([]string(nil), alphabet...),
		teacher:  t,
		words:    shim.tr,
		maxEQ:    shim.maxEQ,
		initial:  shim.initial,
		cache:    map[int32]bool{},
	}
	k.ids, _ = t.(IDTeacher)
	k.batch, _ = t.(BatchTeacher)
	k.bids, _ = t.(IDBatchTeacher)
	k.spec, _ = t.(Speculator)
	if k.words == nil {
		k.words = NewWords(nil, k.alphabet)
		defer k.words.Release()
	} else if !k.words.hasAlphabet(k.alphabet) {
		return nil, Stats{}, errWordsAlphabet
	}
	d, stats, err := k.run()
	// Speculated values never asked before the run ended were wasted
	// work: reconcile them as discarded.
	stats.SpeculationDiscarded += len(k.parked)
	return d, stats, err
}

func (k *kvLearner) member(w []string) (bool, error) {
	id := k.words.Intern(w)
	if v, ok := k.cache[id]; ok {
		return v, nil
	}
	return k.ask(w, id)
}

// ask puts one membership query to the teacher — with the word's ID
// when the teacher takes one — and commits the answer.
func (k *kvLearner) ask(w []string, id int32) (bool, error) {
	var v bool
	var err error
	if k.ids != nil {
		v, err = k.ids.MemberID(w, id)
	} else {
		v, err = k.teacher.Member(w)
	}
	if err != nil {
		return false, err
	}
	k.commit(id, v)
	return v, nil
}

// commit records an answered membership query, charging it and
// reconciling any parked speculative value against the landed answer.
func (k *kvLearner) commit(id int32, v bool) {
	k.stats.MembershipQueries++
	k.cache[id] = v
	if pv, ok := k.parked[id]; ok {
		delete(k.parked, id)
		if pv == v {
			k.stats.SpeculationKept++
		} else {
			k.stats.SpeculationDiscarded++
		}
	}
}

// sift walks the word down the classification tree to its leaf.
func (k *kvLearner) sift(w []string) (*ctNode, error) {
	cur := k.root
	for !cur.isLeaf() {
		probe := append(append([]string(nil), w...), cur.suffix...)
		v, err := k.memberSift(probe, w, cur)
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

// memberSift asks one sift probe. With a batch teacher the probe ships
// as a single-query set on its own goroutine while the calling
// goroutine speculatively precomputes the two possible successor probes
// — word·suffix for whichever child the landed answer selects — and
// parks values the teacher's local side can promise; parked values are
// reconciled by commit when (if ever) the successor probe is asked.
func (k *kvLearner) memberSift(probe, w []string, cur *ctNode) (bool, error) {
	id := k.words.Intern(probe)
	if v, ok := k.cache[id]; ok {
		return v, nil
	}
	if (k.batch == nil && k.bids == nil) || k.spec == nil {
		return k.ask(probe, id)
	}
	// Intern the successor probes before the batch flies: the Words
	// never changes under an in-flight batch.
	var next [2][]string
	var nextID [2]int32
	nn := 0
	for _, child := range []*ctNode{cur.yes, cur.no} {
		if child == nil || child.isLeaf() {
			continue
		}
		nw := append(append([]string(nil), w...), child.suffix...)
		nid := k.words.Intern(nw)
		if _, ok := k.cache[nid]; ok {
			continue
		}
		if _, ok := k.parked[nid]; ok {
			continue
		}
		next[nn], nextID[nn] = nw, nid
		nn++
	}
	type batchRes struct {
		ans []bool
		err error
	}
	ch := make(chan batchRes, 1)
	words, ids := [][]string{probe}, []int32{id}
	go func() {
		var a []bool
		var err error
		if k.bids != nil {
			a, err = k.bids.MemberBatchIDs(words, ids)
		} else {
			a, err = k.batch.MemberBatch(words)
		}
		ch <- batchRes{a, err}
	}()
	for i := 0; i < nn; i++ {
		if v, ok := k.spec.SpeculateMember(next[i], nextID[i]); ok {
			if k.parked == nil {
				k.parked = map[int32]bool{}
			}
			k.parked[nextID[i]] = v
			k.stats.Speculated++
		}
	}
	r := <-ch
	if r.err != nil {
		return false, r.err
	}
	if len(r.ans) != 1 {
		return false, fmt.Errorf("angluin: batch teacher answered %d of 1 queries", len(r.ans))
	}
	k.stats.BatchRounds++
	k.stats.BatchedQueries++
	k.commit(id, r.ans[0])
	return r.ans[0], nil
}

func (k *kvLearner) run() (*pathre.DFA, Stats, error) {
	// Bootstrap with a single leaf (the empty access string): the first
	// counterexample splits it by the empty suffix, creating the
	// canonical accept/reject root.
	k.root = &ctNode{access: []string{}}
	if k.initial != nil {
		// Seed the tree as if the dropped example's path were a first
		// positive counterexample (mirrors WithInitialExample for L*):
		// only useful when it actually distinguishes.
		mi, err := k.member(k.initial)
		if err != nil {
			return nil, k.stats, err
		}
		me, err := k.member(nil)
		if err != nil {
			return nil, k.stats, err
		}
		if mi != me {
			if err := k.split(k.root, k.initial, nil); err != nil {
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
		inTarget, err := k.member(ce)
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
		for _, a := range k.alphabet {
			ext := append(append([]string(nil), l.access...), a)
			target, err := k.sift(ext)
			if err != nil {
				return nil, nil, err
			}
			d.Trans[i][d.SymIndex(a)] = index[target]
		}
	}
	start, err := k.sift(nil)
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
	for i := 1; i <= len(ce); i++ {
		sifted, err := k.sift(ce[:i])
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
		newSuffix := append([]string{ce[i-1]}, d...)
		return k.split(hypLeaf[i-1], ce[:i-1], newSuffix)
	}
	// The hypothesis path agrees everywhere but classification differs:
	// split the final leaf by ε... this only occurs with a single-leaf
	// tree (before the first refinement).
	return k.split(hypLeaf[len(ce)], ce, nil)
}

// lcaSuffix returns the distinguishing suffix at the least common
// ancestor of two leaves.
func (k *kvLearner) lcaSuffix(a, b *ctNode) []string {
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
// distinguishing it from the new access string by the suffix.
func (k *kvLearner) split(leaf *ctNode, newAccess, suffix []string) error {
	oldAccess := leaf.access
	internal := leaf
	internal.suffix = append([]string(nil), suffix...)
	internal.access = nil
	oldLeaf := &ctNode{access: oldAccess, parent: internal}
	newLeaf := &ctNode{access: append([]string(nil), newAccess...), parent: internal}
	probeOld := append(append([]string(nil), oldAccess...), suffix...)
	v, err := k.member(probeOld)
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
