package relaxng

import (
	"slices"
	"testing"
)

// FuzzParse: the compact-syntax parser never panics, and on accepted
// schemas the path check is a prefix-closed language that StepPath
// decides label by label (see checkStepPath).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`start = element a { text }`,
		`X = element b { attribute k { text } }
start = element a { X* | empty }`,
		`start = element a { element b { text }+ , text }`,
		`start =`, `= element`, `start = element a { Y }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		s.AcceptsPath(nil)
		s.AcceptsPath([]string{"a"})
		s.AcceptsPath([]string{"a", "b", "@k"})
		checkStepPath(t, s)
	})
}

// checkStepPath enumerates every label path of length <= 3 over the
// schema's element and attribute names (at most six of them) plus one
// undeclared label, and checks that stepping the path agrees with
// AcceptsPath at every prefix and that a rejected path stays rejected
// under every extension — the property rule R1's deduction rests on.
func checkStepPath(t *testing.T, s *Schema) {
	t.Helper()
	var labels []string
	seen := map[*Pattern]bool{}
	var collect func(p *Pattern)
	collect = func(p *Pattern) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		switch p.Kind {
		case KElement:
			labels = append(labels, p.Name)
		case KAttribute:
			labels = append(labels, "@"+p.Name)
		}
		for _, c := range p.Children {
			collect(c)
		}
	}
	collect(s.Start)
	names := make([]string, 0, len(s.Defs))
	for name := range s.Defs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		collect(s.Defs[name])
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	if len(labels) > 6 {
		labels = labels[:6]
	}
	labels = append(labels, "undeclared-label")
	var walk func(path []string, st int32)
	walk = func(path []string, st int32) {
		if got, want := st >= 0, s.AcceptsPath(path); got != want {
			t.Fatalf("StepPath says %v for %v, AcceptsPath %v", got, path, want)
		}
		if len(path) == 3 {
			return
		}
		for _, l := range labels {
			next := int32(-1)
			if st >= 0 {
				next = s.StepPath(st, l)
			}
			ext := append(path[:len(path):len(path)], l)
			if st < 0 && s.AcceptsPath(ext) {
				t.Fatalf("AcceptsPath rejects %v but accepts its extension %v", path, ext)
			}
			walk(ext, next)
		}
	}
	walk(nil, 0)
}
