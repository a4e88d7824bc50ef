package xq

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// randomSimplePath builds a valid simple path from fuzz bytes.
func randomSimplePath(data []byte) SimplePath {
	if len(data) == 0 {
		return nil
	}
	var out SimplePath
	names := []string{"a", "bb", "ccc", "@k", "@id", "x-y", "n_1"}
	for i := 0; i < len(data) && i < 6; i++ {
		st := Step{Name: names[int(data[i])%len(names)]}
		switch data[i] % 4 {
		case 1:
			st.Pos = 1 + int(data[i]/4)%3
		case 2:
			st.Pos = LastPos
		}
		out = append(out, st)
	}
	return out
}

// TestQuickSimplePathRoundTrip: String → Parse is the identity for any
// well-formed simple path.
func TestQuickSimplePathRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		p := randomSimplePath(data)
		back, err := ParseSimplePath(p.String())
		if err != nil {
			return false
		}
		return back.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPredStringRoundTrip: rendered predicates reparse to
// predicates with the same rendering (ParsePredString is a right
// inverse of String on the operators it supports).
func TestQuickPredStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}
	randOperand := func() Operand {
		switch r.Intn(3) {
		case 0:
			return ConstOp("42")
		case 1:
			return ConstOp("hello world")
		default:
			o := VarOp([]string{"v", "w2", "x"}[r.Intn(3)], randomSimplePath([]byte{byte(r.Intn(256)), byte(r.Intn(256))}))
			if r.Intn(4) == 0 {
				o.Mul = float64(1 + r.Intn(9))
			}
			return o
		}
	}
	for i := 0; i < 300; i++ {
		p := &Pred{Negated: r.Intn(2) == 0}
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			op := ops[r.Intn(len(ops))]
			atom := Cmp{Op: op, L: randOperand(), R: randOperand()}
			if atom.L.IsConst && atom.R.IsConst {
				atom.L = VarOp("v", nil) // at least one side a variable
			}
			if r.Intn(6) == 0 {
				atom = Cmp{Op: OpEmpty, L: VarOp("v", randomSimplePath([]byte{byte(j)}))}
			}
			p.Atoms = append(p.Atoms, atom)
		}
		if r.Intn(2) == 0 {
			p.RelayVar = "rv"
			p.RelayPath = randomSimplePath([]byte{byte(r.Intn(256))})
			if len(p.RelayPath) == 0 {
				p.RelayPath = MustParseSimplePath("a")
			}
			if r.Intn(2) == 0 {
				p.RelayFrom = "outer"
			}
		}
		src := p.String()
		// Multi-atom non-relay predicates render as a flat conjunction
		// that reparses as several preds; restrict round-trip to the
		// single-pred forms the recorder stores.
		if !p.HasRelay() && len(p.Atoms) > 1 {
			continue
		}
		back, err := ParsePredString(src)
		if err != nil {
			t.Fatalf("iter %d: %v\nsrc: %s", i, err, src)
		}
		if back.String() != src {
			t.Fatalf("iter %d: round trip drifted\nsrc:  %s\nback: %s", i, src, back.String())
		}
	}
}

// TestQuickValueComparisonTotality: for every operator and value pair,
// compareValues is consistent with its negation where defined.
func TestQuickValueComparisonTotality(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := NumValue(a), NumValue(b)
		eq := compareValues(OpEq, x, y)
		ne := compareValues(OpNe, x, y)
		lt := compareValues(OpLt, x, y)
		ge := compareValues(OpGe, x, y)
		return eq != ne && lt != ge
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOperandStringStable: rendering is deterministic and
// whitespace-free at the edges (the parser relies on it).
func TestQuickOperandStringStable(t *testing.T) {
	f := func(data []byte) bool {
		o := VarOp("v", randomSimplePath(data))
		s := o.String()
		return s == strings.TrimSpace(s) && s == o.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParseNumberMatchesParseFloat: the byte-class pre-filter is
// exact — parseNumber agrees with strconv.ParseFloat on every string,
// with a rejected string's Num left at 0.
func TestQuickParseNumberMatchesParseFloat(t *testing.T) {
	const alphabet = "0123456789+-._eExXpPaAbBfFiInNtTyY /:,gl"
	check := func(s string) bool {
		f, ok := parseNumber(s)
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return !ok && f == 0
		}
		return ok && (f == want || (math.IsNaN(f) && math.IsNaN(want)))
	}
	for _, s := range []string{"", "7", " 7 ", "1e3", "nan", "NaN", "Inf", "-Inf", "+infinity", "-0",
		"07/05/2000", "12 apples", "0x1p-2", "0x1_0p0", "1_000", "1e999", ".", "+.5", "abc", "infinity!"} {
		if !check(s) {
			t.Errorf("parseNumber(%q) disagrees with ParseFloat", s)
		}
	}
	f := func(data []byte) bool {
		b := make([]byte, len(data)%9)
		for i := range b {
			b[i] = alphabet[int(data[i])%len(alphabet)]
		}
		return check(string(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
