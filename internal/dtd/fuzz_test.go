package dtd

import "testing"

// FuzzParse: the DTD parser never panics, accepted schemas render to
// declarations that reparse, and the schema's path check is a
// prefix-closed language that StepPath decides label by label (see
// checkStepPath).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`<!ELEMENT a (b, c*)> <!ELEMENT b (#PCDATA)> <!ELEMENT c EMPTY> <!ATTLIST c k CDATA #REQUIRED>`,
		`<!ELEMENT p (#PCDATA|em)*> <!ELEMENT em ANY>`,
		`<!ELEMENT a ((b|c)+, d?)>`,
		`<!ELEMENT`, `<!ATTLIST x`, `<!-- comment -->`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Parse(d.String()); err != nil {
			t.Fatalf("accepted schema renders unparseable: %v\n%s", err, d.String())
		}
		checkStepPath(t, d)
	})
}

// checkStepPath enumerates every label path of length <= 3 over the
// DTD's element and attribute names (at most six of them) plus one
// undeclared label, and checks that stepping the path agrees with
// AcceptsPath at every prefix and that a rejected path stays rejected
// under every extension — the property rule R1's deduction rests on.
func checkStepPath(t *testing.T, d *DTD) {
	t.Helper()
	var labels []string
	for _, name := range d.ElementNames() {
		labels = append(labels, name)
		for _, a := range d.Elements[name].Attrs {
			labels = append(labels, "@"+a.Name)
		}
	}
	if len(labels) > 6 {
		labels = labels[:6]
	}
	labels = append(labels, "undeclared-label")
	var walk func(path []string, st int32)
	walk = func(path []string, st int32) {
		if got, want := st >= 0, d.AcceptsPath(path); got != want {
			t.Fatalf("StepPath says %v for %v, AcceptsPath %v", got, path, want)
		}
		if len(path) == 3 {
			return
		}
		for _, l := range labels {
			next := int32(-1)
			if st >= 0 {
				next = d.StepPath(st, l)
			}
			ext := append(path[:len(path):len(path)], l)
			if st < 0 && d.AcceptsPath(ext) {
				t.Fatalf("AcceptsPath rejects %v but accepts its extension %v", path, ext)
			}
			walk(ext, next)
		}
	}
	walk(nil, 0)
}
