package xq_test

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// TestIndexValueColumnMatchesNodeValue: the index's node-value column
// must hold NodeValue of every node — the paper instances, the four 4x
// XMark instances of the benchmark's new-document workload, and a
// document of atomization edge values.
func TestIndexValueColumnMatchesNodeValue(t *testing.T) {
	docs := map[string]*xmldoc.Document{
		"xmark": xmark.Scenarios()[0].Doc(),
		"xmp":   xmp.Doc(),
		"ucr":   ucr.Doc(),
		"edges": xmldoc.MustParse(`<r a=" 7 " b="1e3" c="nan" d="Inf" e="-0" f="07/05/2000" g="12 apples">` +
			`<v> 7 </v><v>1e3</v><v>nan</v><v>-Inf</v><v>-0</v><v>07/05/2000</v><v>12 apples</v>` +
			`<v>0x1p-2</v><v>1_000</v><v>0x1_0p0</v><v>1e999</v><v>infinity</v><v>+.5</v><v>.</v>` +
			`<v><w>1</w><w>2</w></v><v></v></r>`),
	}
	for _, seed := range []int64{100, 200, 400, 500} {
		docs["xmark4x-seed"+strconv.FormatInt(seed, 10)] = largeXMark(seed)
	}
	for name, doc := range docs {
		ix := xq.NewIndex(doc)
		for id := 0; id < doc.NumNodes(); id++ {
			n := doc.NodeByID(id)
			want, got := xq.NodeValue(n), xq.IndexValue(ix, n)
			sameNum := got.Num == want.Num || (math.IsNaN(got.Num) && math.IsNaN(want.Num))
			if got.Node != want.Node || got.Str != want.Str || got.IsNum != want.IsNum || !sameNum ||
				math.Signbit(got.Num) != math.Signbit(want.Num) {
				t.Fatalf("%s node %d: column value %+v != NodeValue %+v", name, id, got, want)
			}
		}
	}
}
