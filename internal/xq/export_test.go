package xq

import "repro/internal/xmldoc"

// IndexValue reads n's entry of the index's node-value column, for the
// external tests that check it against NodeValue on generated instances.
func IndexValue(ix *Index, n *xmldoc.Node) Value { return ix.value(n) }

// CheckValueClasses and FuzzDoc serve the external value-class test,
// which also covers the paper instances (importing them here would be
// a cycle).
var (
	CheckValueClasses = checkValueClasses
	FuzzDoc           = fuzzDoc
)
