package query

import (
	"fmt"
	"strings"

	"serena/internal/algebra"
	"serena/internal/schema"
)

// Aggregate is the grouping/aggregation extension operator (see
// internal/algebra: the paper's Section 1.2 motivates mean-temperature
// queries; the formal algebra leaves aggregation to extensions). SAL
// syntax:
//
//	aggregate[mean(temperature) as avg by location](q)
//	aggregate[count(*) as n](q)
type Aggregate struct {
	Child   Node
	GroupBy []string
	Aggs    []algebra.AggSpec
}

// NewAggregate builds an aggregation node.
func NewAggregate(child Node, groupBy []string, aggs []algebra.AggSpec) *Aggregate {
	return &Aggregate{Child: child, GroupBy: groupBy, Aggs: aggs}
}

// ResultSchema implements Node.
func (a *Aggregate) ResultSchema(env Environment) (*schema.Extended, error) {
	cs, err := a.Child.ResultSchema(env)
	if err != nil {
		return nil, err
	}
	return algebra.AggregateSchema(cs, a.GroupBy, a.Aggs)
}

// Eval implements Node.
func (a *Aggregate) Eval(ctx *Context) (*algebra.XRelation, error) {
	c, err := ctx.Eval(a.Child)
	if err != nil {
		return nil, err
	}
	return algebra.Aggregate(c, a.GroupBy, a.Aggs)
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Aggregate) String() string {
	parts := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		parts[i] = s.String()
	}
	spec := strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		spec += " by " + strings.Join(a.GroupBy, ", ")
	}
	return fmt.Sprintf("aggregate[%s](%s)", spec, a.Child)
}
