package xq

import "repro/internal/xmldoc"

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
