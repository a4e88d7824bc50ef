package xq

import (
	"testing"

	"repro/internal/xmldoc"
)

// checkProbeSuperset runs every plan of tree over doc with the
// executor's own enumeration and, wherever a level or a relay is
// probed, runs the candidates the probe rejects unprobed: each must
// fail its level's full conjunction (a rejected relay node, the
// relay's atoms). It returns how many rejected candidates it checked
// per probe kind.
func checkProbeSuperset(t testing.TB, doc *xmldoc.Document, tree *Tree) map[probeKind]int {
	t.Helper()
	ev := NewEvaluator(doc)
	checked := map[probeKind]int{}
	for _, n := range tree.Nodes() {
		if n.Var == "" {
			continue
		}
		p := ev.planFor(n)
		if p == nil || p.dead {
			continue
		}
		ev.resetEnv(p)
		ev.checkLevelProbes(t, n, p, 0, checked)
	}
	return checked
}

func (e *Evaluator) checkLevelProbes(t testing.TB, n *Node, p *nodePlan, i int, checked map[probeKind]int) {
	if i == len(p.levels) {
		return
	}
	lv := &p.levels[i]
	cands := e.levelCands(lv, i)
	if lv.probe != nil {
		// Both lists are in candidate order: walk them together.
		k := 0
		for _, c := range lv.rooted {
			if k < len(cands) && cands[k] == c {
				k++
				continue
			}
			e.exe.env[i] = c
			checked[lv.probe.kind()]++
			if e.levelPredsHold(lv) {
				t.Fatalf("%s: level $%s's %d probe rejects %s, which passes the level's conjunction", n.Name(), lv.varName, lv.probe.kind(), c.PathString())
			}
		}
		if k != len(cands) {
			t.Fatalf("%s: level $%s's probe admits a candidate out of order or twice", n.Name(), lv.varName)
		}
	}
	// The admitted candidates outlive the recursion only in a copy: the
	// levels below reuse the probe scratch.
	for _, c := range append([]*xmldoc.Node(nil), cands...) {
		e.exe.env[i] = c
		for k := range lv.preds {
			pp := &lv.preds[k]
			if pp.probe == nil {
				continue
			}
			ws, _ := e.probePos(nil, pp.probe)
			admitted := map[int32]bool{}
			for _, w := range ws {
				admitted[w] = true
			}
			for w, r := range pp.relayCands {
				if admitted[int32(w)] {
					continue
				}
				e.exe.env[pp.relaySlot] = r
				checked[pp.probe.kind()]++
				if e.planAtomsHold(pp) {
					t.Fatalf("%s: relay $%d of level $%s: the probe rejects %s, which passes the relay's atoms", n.Name(), pp.relaySlot, lv.varName, r.PathString())
				}
			}
		}
		if e.levelPredsHold(lv) {
			e.checkLevelProbes(t, n, p, i+1, checked)
		}
	}
}
