package value

import (
	"cmp"
	"sort"
	"strings"
)

// Tuple is an element of D^n (paper Section 2.3.1). For extended relations
// tuples range only over the real schema (Definition 3); positional access
// therefore always refers to real-attribute coordinates.
type Tuple []Value

// Clone returns a copy of the tuple sharing the (immutable) values.
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns the sub-tuple at the given coordinate indexes (paper
// Definition 4 generalized projection). It panics on out-of-range indexes,
// which indicates a schema-resolution bug upstream.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation t ++ u as a fresh tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	return append(out, u...)
}

// Equal reports coordinate-wise equality of equal-length tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !Equal(t[i], u[i]) {
			return false
		}
	}
	return true
}

// Identical reports coordinate-wise identity (see Identical). It is the
// equality of TupleMap keys.
func (t Tuple) Identical(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !Identical(t[i], u[i]) {
			return false
		}
	}
	return true
}

// Compare is the canonical tuple order: lexicographic coordinate by
// coordinate, shorter tuples first on ties. Coordinates order by the value
// Compare, made total (see order): values that tie there order by kind and
// then by raw bits. It returns 0 only for Identical tuples, so sorting by it
// gives one order whatever order the tuples arrived in.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := order(t[i], u[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(u))
}

// SortTuples sorts ts in place in the canonical order (Tuple.Compare).
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// order refines Compare into a total order that is 0 only for Identical
// values. Compare ties Int(3) with Real(3) and a NaN with every number, and
// its kind-number fallback puts BLOB between STRING and SERVICE, which it
// compares as text. order ranks classes (NULL, BOOLEAN, numbers, text,
// BLOB), then values in a class (numbers as floats, NaN first), then kind,
// then raw bits.
func order(a, b Value) int {
	if c := cmp.Compare(a.kind.class(), b.kind.class()); c != 0 {
		return c
	}
	var c int
	if a.kind.Numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		c = cmp.Compare(af, bf)
	} else {
		c = Compare(a, b)
	}
	if c != 0 {
		return c
	}
	if c = cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	// Same kind and equal so far: text, blobs and NULL are then identical;
	// Bool/Int/Real differ at most in their bits.
	return cmp.Compare(a.num, b.num)
}

// class groups the kinds Compare compares with each other.
func (k Kind) class() Kind {
	switch {
	case k.Numeric():
		return Int
	case k.Textual():
		return String
	}
	return k
}

// Key encodes the tuple as a string for composite identities that must
// outlive the process or combine a tuple with other fields (invocation
// cache and action keys, which checkpoints persist). Coordinates are joined
// with a 0x1f separator that is not escaped, so two distinct tuples whose
// text holds that byte can share a key; in-memory tuple identity uses
// TupleMap, which cannot collide that way.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// String renders the tuple as "(v1, v2, …)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
