package value

import (
	"math"
	"math/rand"
	"testing"
)

// refMap is the reference the TupleMap tests check against: a linear scan
// over (tuple, value) pairs compared with Tuple.Identical.
type refMap struct {
	keys []Tuple
	vals []int
}

func (r *refMap) find(t Tuple) int {
	for i, k := range r.keys {
		if k.Identical(t) {
			return i
		}
	}
	return -1
}

func (r *refMap) put(t Tuple, v int) {
	if i := r.find(t); i >= 0 {
		r.vals[i] = v
		return
	}
	r.keys, r.vals = append(r.keys, t), append(r.vals, v)
}

func (r *refMap) del(t Tuple) bool {
	i := r.find(t)
	if i < 0 {
		return false
	}
	last := len(r.keys) - 1
	r.keys[i], r.vals[i] = r.keys[last], r.vals[last]
	r.keys, r.vals = r.keys[:last], r.vals[:last]
	return true
}

// identityValues are values that are easy to confuse: equal under Compare
// but not identical (Int 1 vs Real 1, -0 vs +0, NaNs with different
// payloads, String vs Service), and strings holding the 0x1f separator
// that makes Tuple.Key collide.
var identityValues = []Value{
	NewNull(),
	NewBool(false),
	NewBool(true),
	NewInt(0),
	NewInt(1),
	NewReal(0),
	NewReal(math.Copysign(0, -1)),
	NewReal(1),
	NewReal(math.NaN()),
	NewReal(math.Float64frombits(0x7ff8000000000002)),
	NewReal(math.Float64frombits(0xfff8000000000000)),
	NewString(""),
	NewString("a"),
	NewString("a\x1fsb"),
	NewString("b\x1fsc"),
	NewString("c"),
	NewService("a"),
	NewBlob([]byte("a")),
	NewBlob(nil),
}

// tupleOf decodes up to three bytes into a tuple over identityValues; the
// first byte picks the arity.
func tupleOf(b []byte) Tuple {
	if len(b) == 0 {
		return Tuple{}
	}
	n := int(b[0]) % 4
	t := Tuple{}
	for i := 1; i <= n && i < len(b); i++ {
		t = append(t, identityValues[int(b[i])%len(identityValues)])
	}
	return t
}

// checkOps runs ops against a TupleMap and the reference: each op is one
// byte choosing put/get/delete/count, then four bytes of tuple.
func checkOps(t *testing.T, ops []byte) {
	t.Helper()
	var m TupleMap[int]
	var ref refMap
	for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
		op, key, v := ops[0]%4, tupleOf(ops[1:5]), int(ops[0])
		switch op {
		case 0: // put
			m.Put(key, v)
			ref.put(key, v)
		case 1: // get
			got, ok := m.Get(key)
			i := ref.find(key)
			if ok != (i >= 0) || (ok && got != ref.vals[i]) {
				t.Fatalf("step %d: Get(%v) = %d, %v; reference index %d", step, key, got, ok, i)
			}
		case 2: // delete
			if got, want := m.Delete(key), ref.del(key); got != want {
				t.Fatalf("step %d: Delete(%v) = %v, want %v", step, key, got, want)
			}
		case 3: // count
			by := 1
			if v%2 == 1 {
				by = -1
			}
			n := AddCount(&m, key, by)
			want := by
			if i := ref.find(key); i >= 0 {
				want += ref.vals[i]
			}
			if n != want {
				t.Fatalf("step %d: AddCount(%v, %d) = %d, want %d", step, key, by, n, want)
			}
			if ref.del(key); want != 0 {
				ref.put(key, want)
			}
		}
		if m.Len() != len(ref.keys) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref.keys))
		}
		for i, k := range m.Keys() {
			j := ref.find(k)
			if j < 0 || ref.vals[j] != m.vals[i] {
				t.Fatalf("step %d: entry %v = %d not in the reference", step, k, m.vals[i])
			}
		}
	}
}

// withHashBits runs f with tuple hashes truncated to bits bits, so distinct
// tuples share hashes and the collision-chain path runs.
func withHashBits(bits uint, f func()) {
	defer func(saved uint64) { hashMask = saved }(hashMask)
	hashMask = 1<<bits - 1
	f()
}

func TestTupleMapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []uint{64, 2, 0} {
		withHashBits(bits, func() {
			for seed := 0; seed < 200; seed++ {
				ops := make([]byte, 5*200)
				rng.Read(ops)
				checkOps(t, ops)
			}
		})
	}
}

func TestTupleMapIdentityNotEquality(t *testing.T) {
	var m TupleMap[struct{}]
	for _, v := range identityValues {
		m.Put(Tuple{v}, struct{}{})
		m.Put(Tuple{v}, struct{}{}) // a present key stays one entry
	}
	// NaN payloads, zeros of both signs and Int/Real twins are all
	// distinct identities; only the one NaN bit pattern repeats.
	if m.Len() != len(identityValues) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(identityValues))
	}
	if !m.Has(Tuple{NewReal(math.NaN())}) {
		t.Fatal("a NaN key is not found by its own bit pattern")
	}
	if m.Has(Tuple{NewString("a"), NewString("b")}) || m.Has(nil) {
		t.Fatal("absent keys reported present")
	}
}

func TestTupleMapNilReadsEmpty(t *testing.T) {
	var m *TupleMap[int]
	if m.Len() != 0 || m.Keys() != nil || m.Has(Tuple{NewInt(1)}) || m.Find(Tuple{}) != nil {
		t.Fatal("nil map is not empty")
	}
	if _, ok := m.Get(Tuple{NewInt(1)}); ok {
		t.Fatal("nil map Get found a key")
	}
}

func TestTupleMapCloneIsIndependent(t *testing.T) {
	withHashBits(1, func() {
		m := NewTupleMap[int](0)
		for i := 0; i < 8; i++ {
			m.Put(Tuple{NewInt(int64(i))}, i)
		}
		c := m.Clone()
		c.Delete(Tuple{NewInt(3)})
		c.Put(Tuple{NewInt(9)}, 9)
		if m.Len() != 8 || !m.Has(Tuple{NewInt(3)}) || m.Has(Tuple{NewInt(9)}) {
			t.Fatal("changing the clone changed the original")
		}
		if v, ok := c.Get(Tuple{NewInt(7)}); c.Len() != 8 || !ok || v != 7 {
			t.Fatalf("clone lost an entry: len %d, 7 → %d, %v", c.Len(), v, ok)
		}
	})
}

func TestCompareIsATotalIdentityOrder(t *testing.T) {
	var ts []Tuple
	for _, a := range identityValues {
		for _, b := range identityValues[:6] {
			ts = append(ts, Tuple{a, b})
		}
	}
	for _, a := range ts {
		for _, b := range ts {
			c := a.Compare(b)
			if (c == 0) != a.Identical(b) || c != -b.Compare(a) {
				t.Fatalf("Compare(%v, %v) = %d, reverse %d", a, b, c, b.Compare(a))
			}
			for _, d := range ts {
				if c < 0 && b.Compare(d) < 0 && a.Compare(d) >= 0 {
					t.Fatalf("Compare is not transitive on %v < %v < %v", a, b, d)
				}
			}
		}
	}
}

func FuzzTupleMap(f *testing.F) {
	f.Add(byte(64), []byte{0, 2, 13, 15, 0, 0, 2, 12, 14, 0, 2, 2, 13, 15, 0, 1, 2, 12, 14, 0})
	f.Add(byte(0), []byte{3, 1, 8, 0, 0, 3, 1, 9, 0, 0, 1, 1, 8, 0, 0, 7, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, bits byte, ops []byte) {
		withHashBits(uint(bits)%65, func() { checkOps(t, ops) })
	})
}
