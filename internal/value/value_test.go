package value

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindFromName(k.String())
		if !ok {
			t.Fatalf("KindFromName(%q) not recognised", k.String())
		}
		if got != k {
			t.Fatalf("KindFromName(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func TestKindFromNameAliases(t *testing.T) {
	cases := map[string]Kind{
		"int": Int, "INT": Int, "Integer": Int,
		"bool": Bool, "float": Real, "double": Real,
		"varchar": String, "text": String, "bytes": Blob,
		"service": Service,
	}
	for name, want := range cases {
		got, ok := KindFromName(name)
		if !ok || got != want {
			t.Errorf("KindFromName(%q) = %v,%v want %v", name, got, ok, want)
		}
	}
	if _, ok := KindFromName("datetime"); ok {
		t.Error("KindFromName accepted unknown type name")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !NewNull().IsNull() {
		t.Error("NewNull not null")
	}
	if v := NewBool(true); !v.Bool() || v.Kind() != Bool {
		t.Error("NewBool broken")
	}
	if v := NewInt(-42); v.Int() != -42 {
		t.Error("NewInt broken")
	}
	if v := NewReal(3.25); v.Real() != 3.25 {
		t.Error("NewReal broken")
	}
	if v := NewString("hi"); v.Str() != "hi" {
		t.Error("NewString broken")
	}
	if v := NewBlob([]byte{1, 2}); string(v.Blob()) != "\x01\x02" {
		t.Error("NewBlob broken")
	}
	if v := NewService("sensor01"); v.ServiceRef() != "sensor01" {
		t.Error("NewService broken")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-kind accessor")
		}
	}()
	_ = NewInt(1).Str()
}

func TestAsFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{NewInt(7), 7, true},
		{NewReal(2.5), 2.5, true},
		{NewBool(true), 1, true},
		{NewBool(false), 0, true},
		{NewString("x"), 0, false},
		{NewNull(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if ok != c.ok || got != c.want {
			t.Errorf("AsFloat(%v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestAsString(t *testing.T) {
	if s, ok := NewString("a").AsString(); !ok || s != "a" {
		t.Error("AsString(String) broken")
	}
	if s, ok := NewService("svc").AsString(); !ok || s != "svc" {
		t.Error("AsString(Service) broken")
	}
	if _, ok := NewInt(1).AsString(); ok {
		t.Error("AsString(Int) should fail")
	}
}

func TestCompareNumericMix(t *testing.T) {
	if Compare(NewInt(3), NewReal(3.0)) != 0 {
		t.Error("Int 3 should equal Real 3.0")
	}
	if Compare(NewInt(3), NewReal(3.5)) >= 0 {
		t.Error("3 < 3.5 expected")
	}
	if Compare(NewReal(4), NewInt(3)) <= 0 {
		t.Error("4.0 > 3 expected")
	}
}

func TestCompareWithinKinds(t *testing.T) {
	if Compare(NewBool(false), NewBool(true)) >= 0 {
		t.Error("false < true expected")
	}
	if Compare(NewString("a"), NewString("b")) >= 0 {
		t.Error("a < b expected")
	}
	if Compare(NewService("a"), NewService("a")) != 0 {
		t.Error("same service refs should be equal")
	}
	if Compare(NewBlob([]byte{1}), NewBlob([]byte{1, 0})) >= 0 {
		t.Error("shorter blob prefix orders first")
	}
	if Compare(NewNull(), NewNull()) != 0 {
		t.Error("NULL == NULL under Compare")
	}
}

func TestCompareAcrossKinds(t *testing.T) {
	// NULL orders before everything.
	if Compare(NewNull(), NewInt(-1)) >= 0 {
		t.Error("NULL should order first")
	}
	// String and Service mix textually (service refs are classical data
	// values, Section 2.2).
	if Compare(NewString("email"), NewService("email")) != 0 {
		t.Error(`String "email" should equal Service email under Compare`)
	}
	if Compare(NewString("a"), NewService("b")) >= 0 || Compare(NewService("b"), NewString("a")) <= 0 {
		t.Error("textual mix should order lexicographically")
	}
	// Non-comparable kinds order by kind number (Int < String).
	if Compare(NewInt(999), NewString("a")) >= 0 {
		t.Error("Int kind orders before String kind")
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	vals := []Value{
		NewNull(), NewBool(false), NewBool(true), NewInt(-5), NewInt(0),
		NewInt(5), NewReal(-5), NewReal(2.5), NewReal(5), NewString(""),
		NewString("abc"), NewBlob(nil), NewBlob([]byte("xy")),
		NewService("s1"), NewService("s2"),
	}
	for _, a := range vals {
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Fatalf("antisymmetry violated for %v,%v: %d vs %d", a, b, ab, ba)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated for %v,%v,%v", a, b, c)
				}
			}
		}
	}
}

func TestKeyIdentity(t *testing.T) {
	pairs := []struct {
		a, b Value
		same bool
	}{
		{NewInt(3), NewInt(3), true},
		{NewInt(3), NewReal(3), false}, // Key is exact identity, unlike Compare
		{NewString("x"), NewService("x"), false},
		{NewString("bT"), NewBool(true), false},
		{NewBlob([]byte("i3")), NewInt(3), false},
		{NewNull(), NewNull(), true},
		{NewReal(0), NewReal(math.Copysign(0, -1)), false}, // Compare-equal, distinct bits
		{NewReal(math.NaN()), NewReal(math.NaN()), true},
		{NewReal(math.NaN()), NewReal(1), false}, // Compare calls NaN equal to every number
		{NewBool(false), NewBool(false), true},
		{NewBool(false), NewInt(0), false},
		{NewBlob(nil), NewBlob([]byte{}), true},
	}
	for _, p := range pairs {
		if (p.a.Key() == p.b.Key()) != p.same {
			t.Errorf("Key(%v) vs Key(%v): same=%v want %v", p.a, p.b, p.a.Key() == p.b.Key(), p.same)
		}
		if Identical(p.a, p.b) != p.same {
			t.Errorf("Identical(%v, %v) = %v, want %v", p.a, p.b, !p.same, p.same)
		}
		ta, tb := Tuple{NewInt(1), p.a}, Tuple{NewInt(1), p.b}
		if ta.Identical(tb) != p.same {
			t.Errorf("Tuple.Identical(%v, %v) = %v, want %v", ta, tb, !p.same, p.same)
		}
	}
	if (Tuple{NewInt(1)}).Identical(Tuple{NewInt(1), NewNull()}) {
		t.Error("tuples of different arity are identical")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"*":        NewNull(),
		"true":     NewBool(true),
		"-7":       NewInt(-7),
		"2.5":      NewReal(2.5),
		`"hi"`:     NewString("hi"),
		"sensor01": NewService("sensor01"),
		"0x0102":   NewBlob([]byte{1, 2}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q want %q", v, got, want)
		}
	}
	long := NewBlob(make([]byte, 100))
	if s := long.String(); !strings.Contains(s, "(100B)") {
		t.Errorf("long blob should be truncated with size, got %q", s)
	}
}

func TestParse(t *testing.T) {
	good := []struct {
		in   string
		want Value
	}{
		{"42", NewInt(42)},
		{"-42", NewInt(-42)},
		{"3.5", NewReal(3.5)},
		{"1e3", NewReal(1000)},
		{`"hello"`, NewString("hello")},
		{`'hello'`, NewString("hello")},
		{`"with \"quote\""`, NewString(`with "quote"`)},
		{"true", NewBool(true)},
		{"FALSE", NewBool(false)},
		{"*", NewNull()},
		{"null", NewNull()},
		{"0x0aff", NewBlob([]byte{0x0a, 0xff})},
		{"  7 ", NewInt(7)},
	}
	for _, c := range good {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("Parse(%q) = %v want %v", c.in, got, c.want)
		}
	}
	bad := []string{"", "abc", `"unterminated`, "0xzz", "--3"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestCoerce(t *testing.T) {
	if v, ok := Coerce(NewInt(3), Real); !ok || v.Real() != 3 {
		t.Error("Int→Real coercion failed")
	}
	if v, ok := Coerce(NewString("s"), Service); !ok || v.ServiceRef() != "s" {
		t.Error("String→Service coercion failed")
	}
	if v, ok := Coerce(NewService("s"), String); !ok || v.Str() != "s" {
		t.Error("Service→String coercion failed")
	}
	if _, ok := Coerce(NewReal(3.5), Int); ok {
		t.Error("Real→Int must not coerce (lossy)")
	}
	if _, ok := Coerce(NewInt(1), Bool); ok {
		t.Error("Int→Bool must not coerce")
	}
	if v, ok := Coerce(NewNull(), Blob); !ok || !v.IsNull() {
		t.Error("NULL coerces to anything, staying NULL")
	}
	if v, ok := Coerce(NewInt(5), Int); !ok || v.Int() != 5 {
		t.Error("identity coercion failed")
	}
}

func TestComparableKinds(t *testing.T) {
	if !Comparable(Int, Real) || !Comparable(Real, Int) {
		t.Error("numeric kinds must be comparable")
	}
	if !Comparable(String, String) {
		t.Error("same kinds must be comparable")
	}
	if Comparable(String, Int) {
		t.Error("String vs Int must not be comparable")
	}
}

func TestQuickCompareConsistency(t *testing.T) {
	// For random int/float pairs, Compare must agree with float ordering.
	f := func(a int64, b float64) bool {
		if math.IsNaN(b) {
			return true // NaN excluded from the model (never produced by Parse)
		}
		c := Compare(NewInt(a), NewReal(b))
		af := float64(a)
		switch {
		case af < b:
			return c == -1
		case af > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := NewString(a), NewString(b)
		return (va.Key() == vb.Key()) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
