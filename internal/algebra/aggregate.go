package algebra

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"serena/internal/schema"
	"serena/internal/value"
)

// This file implements grouping/aggregation as an EXTENSION to the Serena
// algebra. The paper does not define aggregation operators, but its
// motivating example (Section 1.2) poses "compute a mean temperature for a
// given location" queries; this operator provides them in the obvious
// relational way. The result is a plain relation: grouping keys plus
// aggregate columns, all real, with no binding patterns (aggregation
// destroys the per-tuple service references binding patterns rely on).

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Mean
	Min
	Max
)

var aggNames = map[AggFunc]string{
	Count: "count", Sum: "sum", Mean: "mean", Min: "min", Max: "max",
}

// String returns the SAL spelling.
func (f AggFunc) String() string { return aggNames[f] }

// AggFuncFromString parses an aggregate function name.
func AggFuncFromString(s string) (AggFunc, bool) {
	for f, n := range aggNames {
		if n == s {
			return f, true
		}
	}
	return 0, false
}

// AggSpec is one aggregate column: Func applied to Attr, exposed under As.
// Count ignores Attr (use "*" or empty).
type AggSpec struct {
	Func AggFunc
	Attr string
	As   string
}

// String renders "func(attr) as name".
func (a AggSpec) String() string {
	attr := a.Attr
	if a.Func == Count && attr == "" {
		attr = "*"
	}
	return fmt.Sprintf("%s(%s) as %s", a.Func, attr, a.As)
}

// AggregateSchema derives the result schema: groupBy attributes (which
// must be real) followed by one column per aggregate (INTEGER for count,
// REAL for sum/mean/min/max over numerics; min/max keep the input type for
// strings).
func AggregateSchema(r *schema.Extended, groupBy []string, aggs []AggSpec) (*schema.Extended, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("algebra: aggregation needs at least one aggregate")
	}
	var attrs []schema.ExtAttr
	seen := map[string]bool{}
	for _, g := range groupBy {
		if !r.Has(g) {
			return nil, fmt.Errorf("algebra: unknown grouping attribute %q", g)
		}
		if !r.IsReal(g) {
			return nil, fmt.Errorf("algebra: grouping attribute %q must be real (virtual attributes have no value)", g)
		}
		if seen[g] {
			return nil, fmt.Errorf("algebra: duplicate grouping attribute %q", g)
		}
		seen[g] = true
		t, _ := r.TypeOf(g)
		attrs = append(attrs, schema.ExtAttr{Attribute: schema.Attribute{Name: g, Type: t}})
	}
	for _, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("algebra: aggregate %s needs an output name", a)
		}
		if seen[a.As] {
			return nil, fmt.Errorf("algebra: duplicate output attribute %q", a.As)
		}
		seen[a.As] = true
		outType := value.Real
		switch a.Func {
		case Count:
			outType = value.Int
		case Sum, Mean:
			if err := requireNumeric(r, a); err != nil {
				return nil, err
			}
		case Min, Max:
			t, err := inputType(r, a)
			if err != nil {
				return nil, err
			}
			if !t.Numeric() {
				if t != value.String && t != value.Service {
					return nil, fmt.Errorf("algebra: %s needs numeric or textual input, %q is %s", a.Func, a.Attr, t)
				}
				outType = t
			}
		}
		attrs = append(attrs, schema.ExtAttr{Attribute: schema.Attribute{Name: a.As, Type: outType}})
	}
	return schema.NewExtended("", attrs, nil)
}

func inputType(r *schema.Extended, a AggSpec) (value.Kind, error) {
	if !r.Has(a.Attr) {
		return 0, fmt.Errorf("algebra: unknown aggregate input %q", a.Attr)
	}
	if !r.IsReal(a.Attr) {
		return 0, fmt.Errorf("algebra: aggregate input %q must be real", a.Attr)
	}
	t, _ := r.TypeOf(a.Attr)
	return t, nil
}

func requireNumeric(r *schema.Extended, a AggSpec) error {
	t, err := inputType(r, a)
	if err != nil {
		return err
	}
	if !t.Numeric() {
		return fmt.Errorf("algebra: %s needs a numeric input, %q is %s", a.Func, a.Attr, t)
	}
	return nil
}

// Aggregate groups r by the given real attributes and computes the
// aggregates per group. NULL inputs are skipped (count(*) still counts the
// tuple); groups whose aggregate has no non-NULL input yield NULL.
func Aggregate(r *XRelation, groupBy []string, aggs []AggSpec) (*XRelation, error) {
	outSch, err := AggregateSchema(r.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	keyIdx, err := r.Schema().RealIndexes(groupBy)
	if err != nil {
		return nil, err
	}
	p, err := newAggPlan(r.Schema(), aggs)
	if err != nil {
		return nil, err
	}
	var groups value.TupleMap[*groupState]
	for _, t := range r.Tuples() {
		key := t.Project(keyIdx)
		g, ok := groups.Ref(key)
		if !ok {
			*g = p.newGroup(key)
		}
		p.update(*g, t, 1)
	}
	gs := append([]*groupState(nil), groups.Values()...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].key.Compare(gs[j].key) < 0 })
	out := Empty(outSch)
	for _, g := range gs {
		out.add(p.row(g, nil))
	}
	return out, nil
}

// aggPlan is a resolved aggregate list: each aggregate with its input's
// real coordinate (-1 for count(*), which reads no attribute).
type aggPlan struct {
	aggs   []AggSpec
	aggIdx []int
}

func newAggPlan(sch *schema.Extended, aggs []AggSpec) (*aggPlan, error) {
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Func == Count && a.Attr == "" {
			aggIdx[i] = -1
			continue
		}
		j := sch.RealIndex(a.Attr)
		if j < 0 {
			return nil, fmt.Errorf("algebra: unknown aggregate input %q", a.Attr)
		}
		aggIdx[i] = j
	}
	return &aggPlan{aggs: aggs, aggIdx: aggIdx}, nil
}

// groupState is one group's aggregate state. Both evaluators keep it the
// same way — one O(1) update per member inserted or deleted — and every
// value it yields is a function of the group's member multiset alone, not
// of the order members arrived or left in, so the one-shot and delta
// results are bit-identical by construction (Definition 9).
type groupState struct {
	key   value.Tuple
	count int64
	cols  []aggCol
}

// aggCol is one aggregate's state within a group.
type aggCol struct {
	nonNull int64
	sum     *exactSum // sum and mean only
	// ext is the cached min/max (already coerced to the output type).
	// When stale, a delete removed a value tying it: ext is then only a
	// bound on the extremum, and row rescans the group's members.
	ext   value.Value
	stale bool
}

func (p *aggPlan) newGroup(key value.Tuple) *groupState {
	g := &groupState{key: key, cols: make([]aggCol, len(p.aggs))}
	for i, a := range p.aggs {
		if a.Func == Sum || a.Func == Mean {
			g.cols[i].sum = &exactSum{}
		}
	}
	return g
}

// update folds one member tuple into g (by = 1) or takes it back out
// (by = -1).
func (p *aggPlan) update(g *groupState, t value.Tuple, by int64) {
	g.count += by
	for i, a := range p.aggs {
		if p.aggIdx[i] < 0 {
			continue
		}
		v := t[p.aggIdx[i]]
		if v.IsNull() {
			continue
		}
		c := &g.cols[i]
		c.nonNull += by
		switch a.Func {
		case Sum, Mean:
			if f, ok := v.AsFloat(); ok {
				c.sum.update(f, by)
			}
		case Min, Max:
			v = coerceAgg(v)
			switch {
			case c.nonNull == 0:
				c.ext, c.stale = value.NewNull(), false
			case by > 0 && (c.nonNull == 1 || a.Func.beyond(v, c.ext) >= 0):
				// At or beyond the cached value is the new extremum even
				// when the cache is stale (it bounds the true extremum).
				c.ext, c.stale = v, false
			case by < 0 && a.Func.beyond(v, c.ext) == 0:
				c.stale = true
			}
		}
	}
}

// row renders g's result row, first rescanning members (a group's current
// member set) for any stale extremum. The one-shot evaluator never deletes,
// so it never has a stale extremum and passes no members.
func (p *aggPlan) row(g *groupState, members []value.Tuple) value.Tuple {
	row := make(value.Tuple, 0, len(g.key)+len(p.aggs))
	row = append(row, g.key...)
	for i, a := range p.aggs {
		c := &g.cols[i]
		if c.stale {
			first := true
			for _, m := range members {
				v := m[p.aggIdx[i]]
				if v.IsNull() {
					continue
				}
				if v = coerceAgg(v); first || a.Func.beyond(v, c.ext) > 0 {
					c.ext, first = v, false
				}
			}
			c.stale = false
		}
		row = append(row, aggValue(a, g, c))
	}
	return row
}

func aggValue(a AggSpec, g *groupState, c *aggCol) value.Value {
	if a.Func == Count {
		if a.Attr == "" {
			return value.NewInt(g.count)
		}
		return value.NewInt(c.nonNull)
	}
	if c.nonNull == 0 {
		return value.NewNull()
	}
	switch a.Func {
	case Sum:
		return value.NewReal(c.sum.value())
	case Mean:
		return value.NewReal(round6(c.sum.value() / float64(c.nonNull)))
	}
	return c.ext
}

// beyond compares two coerced min/max candidates in f's direction: >0
// when a is a strictly better extremum than b, 0 when they are identical.
// The order is total (numerics by IEEE 754 totalOrder, so −0 < +0 and NaNs
// sort by sign and payload beyond ±Inf; text by value.Compare, then
// kind), so a multiset's extremum never depends on member order.
func (f AggFunc) beyond(a, b value.Value) int {
	var c int
	if a.Kind() == value.Real && b.Kind() == value.Real {
		c = cmp.Compare(totalOrder(a.Real()), totalOrder(b.Real()))
	} else if c = value.Compare(a, b); c == 0 {
		c = cmp.Compare(a.Kind(), b.Kind())
	}
	if f == Min {
		return -c
	}
	return c
}

// totalOrder maps f to an integer whose order is IEEE 754 totalOrder:
// −NaN < −Inf < … < −0 < +0 < … < +Inf < +NaN.
func totalOrder(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ int64(uint64(b>>63)>>1)
}

// coerceAgg lifts numeric min/max to REAL (the declared output type);
// textual values pass through.
func coerceAgg(v value.Value) value.Value {
	if f, ok := v.AsFloat(); ok && v.Kind() != value.Bool {
		return value.NewReal(f)
	}
	return v
}

func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }
