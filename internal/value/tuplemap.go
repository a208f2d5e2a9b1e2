package value

import (
	"hash/maphash"
	"maps"
	"slices"
)

// TupleMap is a hash map keyed by tuple identity (Identical): the engine's
// one in-memory tuple-identity structure. A set is TupleMap[struct{}], a
// counted multiset TupleMap[int] (see AddCount). Entries are found by a
// 64-bit hash of each coordinate's kind and bits, and every hit is
// confirmed with Identical, so distinct tuples sharing a hash chain.
//
// Entries live in dense slices that Keys exposes. Their order is insertion
// order, except that Delete moves the last entry into the freed slot;
// callers that show an order sort by Tuple.Compare. The zero TupleMap is
// empty, a nil *TupleMap reads as empty, and no TupleMap is safe for
// concurrent use.
type TupleMap[V any] struct {
	index map[uint64]int32 // hash → first entry of its chain
	keys  []Tuple
	vals  []V
	meta  []entryMeta
}

type entryMeta struct {
	hash uint64
	next int32 // next entry with the same hash, or -1
}

// NewTupleMap returns an empty map with room for n entries.
func NewTupleMap[V any](n int) *TupleMap[V] {
	return &TupleMap[V]{
		index: make(map[uint64]int32, n),
		keys:  make([]Tuple, 0, n),
		vals:  make([]V, 0, n),
		meta:  make([]entryMeta, 0, n),
	}
}

// hashSeed keys the hash for the life of the process; hashInit starts
// every tuple's hash from it.
var (
	hashSeed = maphash.MakeSeed()
	hashInit = maphash.String(hashSeed, "")
)

// hashMask truncates tuple hashes. It is all ones; tests narrow it to force
// hash collisions through the chain path.
var hashMask = ^uint64(0)

// hash folds each coordinate's kind and payload into a 64-bit state with
// multiply-xorshift steps: the raw bits of Bool, Int and Real (so -0 and
// +0, or two NaN payloads, differ as under Identical), and a seeded
// maphash of text and blob bytes.
func (t Tuple) hash() uint64 {
	h := hashInit
	for _, v := range t {
		x := v.num
		switch v.kind {
		case String, Service:
			x = maphash.String(hashSeed, v.str)
		case Blob:
			x = maphash.Bytes(hashSeed, v.blob)
		}
		h = (h ^ uint64(v.kind)) * 0x9e3779b97f4a7c15
		h = (h ^ h>>29 ^ x) * 0xbf58476d1ce4e5b9
		h ^= h >> 32
	}
	return h & hashMask
}

// find returns t's entry index and hash, or -1 and the hash.
func (m *TupleMap[V]) find(t Tuple) (int32, uint64) {
	h := t.hash()
	if m == nil {
		return -1, h
	}
	i, ok := m.index[h]
	if !ok {
		return -1, h
	}
	for ; i >= 0; i = m.meta[i].next {
		if m.keys[i].Identical(t) {
			return i, h
		}
	}
	return -1, h
}

// Len returns the number of entries.
func (m *TupleMap[V]) Len() int {
	if m == nil {
		return 0
	}
	return len(m.keys)
}

// Keys returns the keys in iteration order. The slice is the map's own
// storage: callers must not modify it, and it is valid only until the
// next Put, Ref or Delete.
func (m *TupleMap[V]) Keys() []Tuple {
	if m == nil {
		return nil
	}
	return m.keys
}

// Values returns the values in the order of Keys, under the same terms.
func (m *TupleMap[V]) Values() []V {
	if m == nil {
		return nil
	}
	return m.vals
}

// Get returns t's value and whether t is present.
func (m *TupleMap[V]) Get(t Tuple) (v V, ok bool) {
	if p := m.Find(t); p != nil {
		return *p, true
	}
	return v, false
}

// Has reports whether t is present.
func (m *TupleMap[V]) Has(t Tuple) bool { return m.Find(t) != nil }

// Find returns a pointer to t's value, or nil when t is absent. The
// pointer is valid only until the next Put, Ref or Delete.
func (m *TupleMap[V]) Find(t Tuple) *V {
	if i, _ := m.find(t); i >= 0 {
		return &m.vals[i]
	}
	return nil
}

// Ref returns a pointer to t's value, inserting t with the zero value when
// absent; present reports whether t was already there. The pointer is
// valid only until the next Put, Ref or Delete.
func (m *TupleMap[V]) Ref(t Tuple) (p *V, present bool) {
	i, h := m.find(t)
	if i >= 0 {
		return &m.vals[i], true
	}
	if m.index == nil {
		m.index = map[uint64]int32{}
	}
	next, ok := m.index[h]
	if !ok {
		next = -1
	}
	i = int32(len(m.keys))
	m.index[h] = i
	m.keys = append(m.keys, t)
	var zero V
	m.vals = append(m.vals, zero)
	m.meta = append(m.meta, entryMeta{hash: h, next: next})
	return &m.vals[i], false
}

// Put sets t's value, inserting t when absent. A present entry keeps its
// original key.
func (m *TupleMap[V]) Put(t Tuple, v V) {
	p, _ := m.Ref(t)
	*p = v
}

// Delete removes t and reports whether it was present.
func (m *TupleMap[V]) Delete(t Tuple) bool {
	i, h := m.find(t)
	if i < 0 {
		return false
	}
	m.relink(h, i, m.meta[i].next)
	last := int32(len(m.keys) - 1)
	if i != last {
		m.relink(m.meta[last].hash, last, i)
		m.keys[i], m.vals[i], m.meta[i] = m.keys[last], m.vals[last], m.meta[last]
	}
	var zero V
	m.keys[last], m.vals[last] = nil, zero
	m.keys, m.vals, m.meta = m.keys[:last], m.vals[:last], m.meta[:last]
	return true
}

// relink replaces the link to entry from in hash h's chain with to (-1
// unlinks it, dropping the chain when it empties).
func (m *TupleMap[V]) relink(h uint64, from, to int32) {
	j := m.index[h]
	if j == from {
		if to < 0 {
			delete(m.index, h)
		} else {
			m.index[h] = to
		}
		return
	}
	for m.meta[j].next != from {
		j = m.meta[j].next
	}
	m.meta[j].next = to
}

// Clone returns a copy of the map; keys are shared, values copied by
// assignment.
func (m *TupleMap[V]) Clone() *TupleMap[V] {
	return &TupleMap[V]{
		index: maps.Clone(m.index),
		keys:  slices.Clone(m.keys),
		vals:  slices.Clone(m.vals),
		meta:  slices.Clone(m.meta),
	}
}

// Clear removes every entry and releases the storage.
func (m *TupleMap[V]) Clear() { *m = TupleMap[V]{} }

// AddCount adds by to t's count in a counted multiset, removing t when its
// count reaches zero, and returns the new count.
func AddCount(m *TupleMap[int], t Tuple, by int) int {
	p, _ := m.Ref(t)
	*p += by
	n := *p
	if n == 0 {
		m.Delete(t)
	}
	return n
}
