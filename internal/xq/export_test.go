package xq

import (
	"testing"

	"repro/internal/xmldoc"
)

// IndexValue reads n's entry of the index's node-value column, for the
// external tests that check it against NodeValue on generated instances.
func IndexValue(ix *Index, n *xmldoc.Node) Value { return ix.value(n) }

// CheckValueClasses, CheckConds, CheckRootScan and FuzzDoc serve the
// external value-class, condition-check and root-path scan tests, which also cover the paper
// instances (importing them here would be a cycle).
var (
	CheckValueClasses = checkValueClasses
	CheckConds        = checkConds
	CheckRootScan     = checkRootScan
	FuzzDoc           = fuzzDoc
)

// CheckProbeSuperset runs checkProbeSuperset and returns how many
// rejected candidates it checked under range probes and under
// relay-level probes.
func CheckProbeSuperset(t testing.TB, doc *xmldoc.Document, tree *Tree) (ranged, relayed int) {
	checked := checkProbeSuperset(t, doc, tree)
	return checked[probeRange], checked[probeRelay]
}

// CountConjunctions returns how many level conjunction checks the
// compiled executor runs while f runs (see conjRun).
func CountConjunctions(f func()) int {
	n := 0
	conjRun = func() { n++ }
	defer func() { conjRun = nil }()
	f()
	return n
}
