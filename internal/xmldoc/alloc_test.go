//go:build !race

package xmldoc

import (
	"strings"
	"testing"
)

// TestParseStringAllocs pins the per-node allocation budget of the
// parser on a fixed instance shaped like the XMark fragments the
// suites parse. Interning keeps labels and attribute symbols shared
// across nodes, so the remaining allocations are the node structs, the
// child/attribute slices, and the decoder's own buffers; the budget
// below (~12 allocations per node) holds a wide margin over the
// measured cost so only a real regression — say, a per-node string
// copy sneaking back into the label path — trips it. (Build-tagged out
// under -race: the detector's instrumentation allocates.)
func TestParseStringAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < 100; i++ {
		b.WriteString(`<person id="p"><name>n</name><emailaddress>e</emailaddress></person>`)
	}
	b.WriteString("</people></site>")
	src := b.String()
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.NumNodes()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseString(src); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(nodes)
	if perNode > 12 {
		t.Errorf("ParseString allocates %.1f objects per node (%0.f total over %d nodes), want <= 12",
			perNode, allocs, nodes)
	}
}

// TestEscapeAllocs: escaping a string with nothing to escape allocates
// nothing — the escapers are built once, not per call, and a Replacer
// returns its input unchanged when no pattern occurs.
func TestEscapeAllocs(t *testing.T) {
	for name, escape := range map[string]func(string) string{"text": escapeText, "attr": escapeAttr} {
		allocs := testing.AllocsPerRun(100, func() {
			if escape("plain value 42") != "plain value 42" {
				t.Fatal("clean string changed")
			}
		})
		if allocs != 0 {
			t.Errorf("%s escaper allocates %.0f objects on a clean string, want 0", name, allocs)
		}
	}
}
