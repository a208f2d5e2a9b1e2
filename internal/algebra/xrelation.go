// Package algebra implements the Serena algebra (Gripay et al., EDBT 2010,
// Section 3): X-Relations and the set, relational and realization operators
// of Table 3. Operators are pure functions from X-Relations to X-Relations;
// side effects (service invocations) are abstracted behind the Invoker
// interface so that the query layer can record action sets (Definition 8)
// and memoize passive invocations.
package algebra

import (
	"fmt"
	"strings"

	"serena/internal/schema"
	"serena/internal/value"
)

// XRelation is an extended relation (Definition 3): a finite *set* of tuples
// over the real schema of an extended relation schema. Its tuples are the
// keys of a tuple set, kept in insertion order and treated as immutable by
// all operators.
type XRelation struct {
	sch *schema.Extended
	set *value.TupleMap[struct{}]
}

// New builds an X-Relation over the given schema, validating and
// deduplicating the tuples (set semantics). Tuples are checked against the
// real schema and coerced where natural (Int→Real, String→Service).
func New(sch *schema.Extended, tuples []value.Tuple) (*XRelation, error) {
	if sch == nil {
		return nil, fmt.Errorf("algebra: nil schema")
	}
	r := &XRelation{sch: sch, set: value.NewTupleMap[struct{}](len(tuples))}
	for i, t := range tuples {
		c, err := sch.RealRel().Conforms(t)
		if err != nil {
			return nil, fmt.Errorf("algebra: %s: tuple %d: %w", sch.Name(), i, err)
		}
		r.add(c)
	}
	return r, nil
}

// MustNew is New panicking on error, for fixtures and tests.
func MustNew(sch *schema.Extended, tuples []value.Tuple) *XRelation {
	r, err := New(sch, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Empty returns an empty X-Relation over the schema.
func Empty(sch *schema.Extended) *XRelation {
	return &XRelation{sch: sch, set: &value.TupleMap[struct{}]{}}
}

// FromSet wraps a set of tuples already known to conform to the schema
// (they came out of operators over it), skipping New's per-tuple checks.
// The relation owns the set from then on: callers must not modify it.
func FromSet(sch *schema.Extended, set *value.TupleMap[struct{}]) *XRelation {
	return &XRelation{sch: sch, set: set}
}

// add inserts a conformed tuple, keeping set semantics.
func (r *XRelation) add(t value.Tuple) { r.set.Put(t, struct{}{}) }

// Schema returns the extended relation schema.
func (r *XRelation) Schema() *schema.Extended { return r.sch }

// Len returns the cardinality of the relation.
func (r *XRelation) Len() int { return r.set.Len() }

// Tuples returns the tuples in insertion order; callers must not mutate.
func (r *XRelation) Tuples() []value.Tuple { return r.set.Keys() }

// Contains reports membership of a tuple (after conformance; tuple
// identity, see value.Tuple.Identical).
func (r *XRelation) Contains(t value.Tuple) bool { return r.set.Has(t) }

// Sorted returns the tuples in the canonical order (value.Tuple.Compare).
func (r *XRelation) Sorted() []value.Tuple {
	out := append([]value.Tuple(nil), r.Tuples()...)
	value.SortTuples(out)
	return out
}

// EqualContents reports whether two X-Relations hold the same tuple set.
// It does not compare schemas; use Schema().Equal for that.
func (r *XRelation) EqualContents(o *XRelation) bool {
	if r.Len() != o.Len() {
		return false
	}
	for _, t := range r.Tuples() {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}

// Table renders the relation in the paper's tabular style, with '*' in
// virtual attribute columns (which hold no values).
func (r *XRelation) Table() string {
	attrs := r.sch.Attrs()
	widths := make([]int, len(attrs))
	header := make([]string, len(attrs))
	for i, a := range attrs {
		header[i] = a.Name
		widths[i] = len(a.Name)
	}
	rows := make([][]string, 0, r.Len())
	for _, t := range r.Sorted() {
		row := make([]string, len(attrs))
		for i, a := range attrs {
			if a.Virtual {
				row[i] = "*"
			} else {
				row[i] = t[r.sch.RealIndex(a.Name)].String()
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// String summarizes the relation.
func (r *XRelation) String() string {
	name := r.sch.Name()
	if name == "" {
		name = "<derived>"
	}
	return fmt.Sprintf("%s: %d tuple(s) over %v", name, r.Len(), r.sch.Names())
}
