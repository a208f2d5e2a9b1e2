package algebra

// This file implements the delta-aware (semi-naive) form of the Serena
// operators: instead of recomputing a full X-Relation per instant, each
// operator consumes its operand's change set — the tuples inserted into and
// deleted from the operand's instantaneous relation since the previous
// instant — and emits its own, maintaining just enough internal state
// (support counts, join hash indexes, per-group aggregate state) to do so
// in time proportional to |changes|, not |operand|.
//
// Delta operators are state machines over SET-level deltas: inputs and
// outputs are X-Relation (set semantics) change sets, normalized so no
// tuple appears in both Ins and Del of one Delta. Operators whose
// tuple-level mapping is not injective (projection, union, aggregation)
// keep support counts so a set-level deletion is emitted only when the
// LAST supporting input disappears.
//
// The continuous executor (internal/cq) compiles a registered plan into a
// tree of these operators plus its own time-aware sources (window, base,
// stream, β-invocation) — see internal/cq/delta.go. One-shot evaluation
// never uses them.

import (
	"fmt"

	"serena/internal/schema"
	"serena/internal/value"
)

// Delta is one instant's change set for an X-Relation: the tuples inserted
// into and deleted from its instantaneous relation since the previous
// instant. A normalized Delta never holds the same tuple in both halves.
type Delta struct {
	Ins []value.Tuple
	Del []value.Tuple
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool { return len(d.Ins) == 0 && len(d.Del) == 0 }

// Rows returns the total number of changed tuples.
func (d Delta) Rows() int { return len(d.Ins) + len(d.Del) }

// DeltaAcc nets per-tuple contributions within one instant: an insert and
// a delete of the same tuple cancel, so the emitted Delta is normalized.
// The emission order is unspecified — consumers are order-insensitive (set
// semantics; ordered consumers sort where they need to). It is exported
// for external delta operators (the continuous executor's sources and β).
type DeltaAcc struct {
	count value.TupleMap[int]
}

// NewDeltaAcc returns an empty accumulator.
func NewDeltaAcc() *DeltaAcc { return &DeltaAcc{} }

// Add records one inserted tuple.
func (a *DeltaAcc) Add(t value.Tuple) { value.AddCount(&a.count, t, 1) }

// Del records one deleted tuple.
func (a *DeltaAcc) Del(t value.Tuple) { value.AddCount(&a.count, t, -1) }

// Delta emits the netted change set.
func (a *DeltaAcc) Delta() Delta {
	var d Delta
	counts := a.count.Values()
	for i, t := range a.count.Keys() {
		if counts[i] > 0 {
			d.Ins = append(d.Ins, t)
		} else {
			d.Del = append(d.Del, t)
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// DeltaGate: the multiset → set boundary.

// DeltaGate converts raw multiset changes (tuples entering and leaving an
// XD-Relation's instantaneous multiset, or a window's content) into
// set-level deltas by support counting: an insert is emitted when a tuple's
// multiplicity rises from zero, a delete when it returns to zero. It is the
// leaf adapter between time-aware sources and the set-semantics operators.
type DeltaGate struct {
	count value.TupleMap[int]
}

// NewDeltaGate returns an empty gate.
func NewDeltaGate() *DeltaGate { return &DeltaGate{} }

// Reset clears the gate's multiset.
func (g *DeltaGate) Reset() { g.count.Clear() }

// Apply feeds the instant's entering and leaving tuples through the gate
// and returns the set-level delta. Leaving a tuple that is not present is
// an inconsistency (the caller's state diverged from its source) and
// errors so the caller can rebuild.
func (g *DeltaGate) Apply(enter, leave []value.Tuple) (Delta, error) {
	return supportCount(&g.count, enter, leave, "gate")
}

// supportCount folds entering and leaving tuples into a multiset of
// support counts and returns the set-level delta: an insert when a tuple's
// count rises from zero, a delete when it returns to zero. Leaving a tuple
// with no support is an underflow of the named operator.
func supportCount(count *value.TupleMap[int], enter, leave []value.Tuple, op string) (Delta, error) {
	acc := NewDeltaAcc()
	for _, t := range enter {
		if value.AddCount(count, t, 1) == 1 {
			acc.Add(t)
		}
	}
	for _, t := range leave {
		if !count.Has(t) {
			return Delta{}, fmt.Errorf("algebra: delta %s underflow on %s", op, t)
		}
		if value.AddCount(count, t, -1) == 0 {
			acc.Del(t)
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// Stateless relational deltas: σ, ρ, α-assignment.

// DeltaSelect is the delta form of σ_F: the formula commutes with set
// difference, so inserts and deletes are filtered independently and no
// state is kept.
type DeltaSelect struct {
	sch *schema.Extended
	f   Formula
}

// NewDeltaSelect validates F against the operand schema and returns the
// delta operator.
func NewDeltaSelect(in *schema.Extended, f Formula) (*DeltaSelect, error) {
	if err := f.Validate(in); err != nil {
		return nil, err
	}
	return &DeltaSelect{sch: in, f: f}, nil
}

// Schema returns the (unchanged) output schema.
func (s *DeltaSelect) Schema() *schema.Extended { return s.sch }

// Reset implements the delta-operator contract (no state).
func (s *DeltaSelect) Reset() {}

// Apply filters the operand delta.
func (s *DeltaSelect) Apply(child Delta) (Delta, error) {
	var out Delta
	for _, t := range child.Ins {
		if s.f.Eval(s.sch, t) {
			out.Ins = append(out.Ins, t)
		}
	}
	for _, t := range child.Del {
		if s.f.Eval(s.sch, t) {
			out.Del = append(out.Del, t)
		}
	}
	return out, nil
}

// DeltaRename is the delta form of ρ: tuples are unchanged (only the schema
// relabels), so deltas pass through.
type DeltaRename struct {
	out *schema.Extended
}

// NewDeltaRename validates the renaming and returns the delta operator.
func NewDeltaRename(in *schema.Extended, oldName, newName string) (*DeltaRename, error) {
	out, err := schema.RenameSchema(in, oldName, newName)
	if err != nil {
		return nil, err
	}
	return &DeltaRename{out: out}, nil
}

// Schema returns the relabeled schema.
func (r *DeltaRename) Schema() *schema.Extended { return r.out }

// Reset implements the delta-operator contract (no state).
func (r *DeltaRename) Reset() {}

// Apply passes the operand delta through.
func (r *DeltaRename) Apply(child Delta) (Delta, error) { return child, nil }

// DeltaAssign is the delta form of α_{A:=a} / α_{A:=B}. The mapping from
// input to output tuple is injective (the input's real attributes are all
// preserved), so deltas transform tuple-wise with no support counting.
type DeltaAssign struct {
	out  *schema.Extended
	plan []realizeStep
	gen  func(value.Tuple) value.Value
}

// NewDeltaAssignConst builds the delta form of α_{attr := v}.
func NewDeltaAssignConst(in *schema.Extended, attr string, v value.Value) (*DeltaAssign, error) {
	out, gen, err := assignConstGen(in, attr, v)
	if err != nil {
		return nil, err
	}
	return &DeltaAssign{out: out, plan: buildRealizePlan(in, out), gen: gen}, nil
}

// NewDeltaAssignAttr builds the delta form of α_{attr := src}.
func NewDeltaAssignAttr(in *schema.Extended, attr, src string) (*DeltaAssign, error) {
	out, gen, err := assignAttrGen(in, attr, src)
	if err != nil {
		return nil, err
	}
	return &DeltaAssign{out: out, plan: buildRealizePlan(in, out), gen: gen}, nil
}

// Schema returns the output schema (attr realized).
func (a *DeltaAssign) Schema() *schema.Extended { return a.out }

// Reset implements the delta-operator contract (no state).
func (a *DeltaAssign) Reset() {}

// Apply transforms the operand delta tuple-wise.
func (a *DeltaAssign) Apply(child Delta) (Delta, error) {
	out := Delta{Ins: make([]value.Tuple, len(child.Ins)), Del: make([]value.Tuple, len(child.Del))}
	for i, t := range child.Ins {
		out.Ins[i] = realizeTuple(t, a.plan, a.gen)
	}
	for i, t := range child.Del {
		out.Del[i] = realizeTuple(t, a.plan, a.gen)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// DeltaProject: support-counted π.

// DeltaProject is the delta form of π_Y. Projection is not injective:
// several input tuples may project to one output tuple, so an output
// deletion is emitted only when its LAST supporting input disappears.
type DeltaProject struct {
	out     *schema.Extended
	idx     []int
	support value.TupleMap[int]
}

// NewDeltaProject resolves the projection and returns the delta operator.
func NewDeltaProject(in *schema.Extended, names []string) (*DeltaProject, error) {
	out, err := schema.ProjectSchema(in, names)
	if err != nil {
		return nil, err
	}
	idx, err := in.RealIndexes(out.RealNames())
	if err != nil {
		return nil, err
	}
	return &DeltaProject{out: out, idx: idx}, nil
}

// Schema returns the projected schema.
func (p *DeltaProject) Schema() *schema.Extended { return p.out }

// Reset clears the support counts.
func (p *DeltaProject) Reset() { p.support.Clear() }

// Apply projects the operand delta under support counting.
func (p *DeltaProject) Apply(child Delta) (Delta, error) {
	project := func(ts []value.Tuple) []value.Tuple {
		out := make([]value.Tuple, len(ts))
		for i, t := range ts {
			out[i] = t.Project(p.idx)
		}
		return out
	}
	return supportCount(&p.support, project(child.Ins), project(child.Del), "project")
}

// ---------------------------------------------------------------------------
// DeltaJoin: incremental ⋈ with per-side hash indexes.

// DeltaJoin is the delta form of the natural join. It maintains a hash
// index of each side's current tuples on the shared real join attributes;
// per instant it probes each side's delta against the other side's index,
// so the work is |ΔL|·fanout + |ΔR|·fanout instead of |L|+|R|.
type DeltaJoin struct {
	plan  *joinPlan
	sides [2]joinIndex // left, right
}

// joinIndex maps a join key to the set of one side's tuples carrying it.
type joinIndex = value.TupleMap[value.TupleMap[struct{}]]

// NewDeltaJoin derives the join plan for the two operand schemas and
// returns the delta operator.
func NewDeltaJoin(s1, s2 *schema.Extended) (*DeltaJoin, error) {
	plan, err := buildJoinPlan(s1, s2)
	if err != nil {
		return nil, err
	}
	return &DeltaJoin{plan: plan}, nil
}

// Schema returns the joined schema.
func (j *DeltaJoin) Schema() *schema.Extended { return j.plan.out }

// Reset clears both hash indexes.
func (j *DeltaJoin) Reset() { j.sides = [2]joinIndex{} }

// Apply maintains the indexes and emits the joined delta. The left delta is
// applied first (probing the right side's PREVIOUS index), then the right
// delta (probing the left side's UPDATED index) — the standard asymmetric
// form that counts each changed pair exactly once; same-instant cross
// effects (e.g. left insert meeting a right delete) net out in the
// accumulator.
func (j *DeltaJoin) Apply(dl, dr Delta) (Delta, error) {
	acc := NewDeltaAcc()
	for s, d := range [2]Delta{dl, dr} {
		own, other := &j.sides[s], &j.sides[1-s]
		keyIdx := j.plan.idx1
		combine := j.plan.combine
		if s == 1 {
			keyIdx = j.plan.idx2
			combine = func(t, o value.Tuple) value.Tuple { return j.plan.combine(o, t) }
		}
		for _, t := range d.Del {
			jk := t.Project(keyIdx)
			b := own.Find(jk)
			if b == nil || !b.Delete(t) {
				return Delta{}, fmt.Errorf("algebra: delta join index underflow on %s", t)
			}
			if b.Len() == 0 {
				own.Delete(jk)
			}
			if ob := other.Find(jk); ob != nil {
				for _, o := range ob.Keys() {
					acc.Del(combine(t, o))
				}
			}
		}
		for _, t := range d.Ins {
			jk := t.Project(keyIdx)
			b, _ := own.Ref(jk)
			b.Put(t, struct{}{})
			if ob := other.Find(jk); ob != nil {
				for _, o := range ob.Keys() {
					acc.Add(combine(t, o))
				}
			}
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// DeltaSetOp: ∪, ∩, − with side-membership state.

// DeltaSetOp is the delta form of the three set operators. It keeps each
// side's membership set and emits a change whenever a side change flips the
// tuple's membership in the output.
type DeltaSetOp struct {
	kind  int // 0 union, 1 intersect, 2 diff — mirrors query.SetOpKind order
	sch   *schema.Extended
	sides [2]value.TupleMap[struct{}] // left, right
}

// Set-operator kinds for NewDeltaSetOp (aligned with the one-shot
// operators: union, intersect, difference).
const (
	DeltaUnion = iota
	DeltaIntersect
	DeltaDiff
)

// NewDeltaSetOp checks the operand schemas and returns the delta operator.
func NewDeltaSetOp(kind int, s1, s2 *schema.Extended) (*DeltaSetOp, error) {
	if !s1.Equal(s2) {
		return nil, fmt.Errorf("algebra: set operator requires identical extended schemas (%s vs %s)",
			s1.Name(), s2.Name())
	}
	if kind < DeltaUnion || kind > DeltaDiff {
		return nil, fmt.Errorf("algebra: unknown set operator kind %d", kind)
	}
	return &DeltaSetOp{kind: kind, sch: s1}, nil
}

// Schema returns the (shared) operand schema.
func (s *DeltaSetOp) Schema() *schema.Extended { return s.sch }

// Reset clears the side-membership sets.
func (s *DeltaSetOp) Reset() { s.sides = [2]value.TupleMap[struct{}]{} }

// member reports output membership given membership in the left and right
// operands.
func (s *DeltaSetOp) member(l, r bool) bool {
	switch s.kind {
	case DeltaUnion:
		return l || r
	case DeltaIntersect:
		return l && r
	}
	return l && !r
}

// Apply maintains side membership and emits the set-operator delta. The
// left delta is applied first; each side's emission tests the other side's
// state at that point (previous for left, updated for right), which counts
// every output transition exactly once; cross effects net out in the
// accumulator.
func (s *DeltaSetOp) Apply(dl, dr Delta) (Delta, error) {
	acc := NewDeltaAcc()
	for i, d := range [2]Delta{dl, dr} {
		own, other := &s.sides[i], &s.sides[1-i]
		// flip emits the output change, if any, of t's own-side membership
		// changing to now.
		flip := func(t value.Tuple, now bool) {
			o := other.Has(t)
			before, after := s.member(!now, o), s.member(now, o)
			if i == 1 {
				before, after = s.member(o, !now), s.member(o, now)
			}
			switch {
			case before && !after:
				acc.Del(t)
			case !before && after:
				acc.Add(t)
			}
		}
		for _, t := range d.Del {
			if !own.Delete(t) {
				return Delta{}, fmt.Errorf("algebra: delta set-op underflow on %s", t)
			}
			flip(t, false)
		}
		for _, t := range d.Ins {
			own.Put(t, struct{}{})
			flip(t, true)
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// DeltaAggregate: per-group state updated per change.

// DeltaAggregate is the delta form of grouping/aggregation. It keeps, per
// group, the member set, the aggregate state the one-shot operator uses
// (groupState: counts, exact sums, cached extrema) and the group's last
// emitted result row. Each inserted or deleted tuple updates its group's
// state in O(1); per instant every changed group renders its row once and
// emits a delete of the old row plus an insert of the new one when the row
// changed. The only O(|group|) work left is rescanning the members for a
// min/max whose cached value a delete removed.
type DeltaAggregate struct {
	out    *schema.Extended
	plan   *aggPlan
	keyIdx []int
	groups value.TupleMap[*deltaGroup] // by group key
}

type deltaGroup struct {
	*groupState
	members value.TupleMap[struct{}]
	lastRow value.Tuple
	dirty   bool // changed in the current Apply
}

// NewDeltaAggregate resolves the aggregation and returns the delta
// operator.
func NewDeltaAggregate(in *schema.Extended, groupBy []string, aggs []AggSpec) (*DeltaAggregate, error) {
	out, err := AggregateSchema(in, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	keyIdx, err := in.RealIndexes(groupBy)
	if err != nil {
		return nil, err
	}
	plan, err := newAggPlan(in, aggs)
	if err != nil {
		return nil, err
	}
	return &DeltaAggregate{out: out, plan: plan, keyIdx: keyIdx}, nil
}

// Schema returns the aggregate result schema.
func (a *DeltaAggregate) Schema() *schema.Extended { return a.out }

// Reset clears all group state.
func (a *DeltaAggregate) Reset() { a.groups.Clear() }

// Apply folds the operand delta into the group states and emits the
// changed groups' rows. Inserting a present member changes nothing (the
// operand is a set); deleting an absent one is an underflow.
func (a *DeltaAggregate) Apply(child Delta) (Delta, error) {
	var dirty []*deltaGroup
	touch := func(g *deltaGroup) {
		if !g.dirty {
			g.dirty = true
			dirty = append(dirty, g)
		}
	}
	for _, t := range child.Ins {
		key := t.Project(a.keyIdx)
		p, ok := a.groups.Ref(key)
		if !ok {
			*p = &deltaGroup{groupState: a.plan.newGroup(key)}
		}
		g := *p
		if _, present := g.members.Ref(t); present {
			continue
		}
		a.plan.update(g.groupState, t, 1)
		touch(g)
	}
	for _, t := range child.Del {
		g, _ := a.groups.Get(t.Project(a.keyIdx))
		if g == nil || !g.members.Delete(t) {
			return Delta{}, fmt.Errorf("algebra: delta aggregate underflow on %s", t)
		}
		a.plan.update(g.groupState, t, -1)
		touch(g)
	}
	// Rows of distinct groups differ in their key columns, and a group
	// emits only when its row changed, so the output is normalized without
	// netting.
	var out Delta
	for _, g := range dirty {
		g.dirty = false
		if g.members.Len() == 0 {
			if g.lastRow != nil {
				out.Del = append(out.Del, g.lastRow)
			}
			a.groups.Delete(g.key)
			continue
		}
		row := a.plan.row(g.groupState, g.members.Keys())
		if g.lastRow != nil {
			if g.lastRow.Identical(row) {
				continue // group changed but its aggregate row did not
			}
			out.Del = append(out.Del, g.lastRow)
		}
		out.Ins = append(out.Ins, row)
		g.lastRow = row
	}
	return out, nil
}
