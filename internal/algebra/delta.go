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
	count map[string]int
	tuple map[string]value.Tuple
}

// NewDeltaAcc returns an empty accumulator.
func NewDeltaAcc() *DeltaAcc {
	return &DeltaAcc{count: map[string]int{}, tuple: map[string]value.Tuple{}}
}

// Add records one inserted tuple.
func (a *DeltaAcc) Add(t value.Tuple) { a.bump(t, 1) }

// Del records one deleted tuple.
func (a *DeltaAcc) Del(t value.Tuple) { a.bump(t, -1) }

func (a *DeltaAcc) bump(t value.Tuple, by int) {
	k := t.Key()
	a.count[k] += by
	if a.count[k] == 0 {
		delete(a.count, k)
		delete(a.tuple, k)
		return
	}
	a.tuple[k] = t
}

// Delta emits the netted change set.
func (a *DeltaAcc) Delta() Delta {
	var d Delta
	for k, c := range a.count {
		switch {
		case c > 0:
			d.Ins = append(d.Ins, a.tuple[k])
		case c < 0:
			d.Del = append(d.Del, a.tuple[k])
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
	count map[string]int
}

// NewDeltaGate returns an empty gate.
func NewDeltaGate() *DeltaGate { return &DeltaGate{count: map[string]int{}} }

// Reset clears the gate's multiset.
func (g *DeltaGate) Reset() { g.count = map[string]int{} }

// Apply feeds the instant's entering and leaving tuples through the gate
// and returns the set-level delta. Leaving a tuple that is not present is
// an inconsistency (the caller's state diverged from its source) and
// errors so the caller can rebuild.
func (g *DeltaGate) Apply(enter, leave []value.Tuple) (Delta, error) {
	acc := NewDeltaAcc()
	for _, t := range enter {
		k := t.Key()
		g.count[k]++
		if g.count[k] == 1 {
			acc.Add(t)
		}
	}
	for _, t := range leave {
		k := t.Key()
		c, ok := g.count[k]
		if !ok || c == 0 {
			return Delta{}, fmt.Errorf("algebra: delta gate underflow on %s", t)
		}
		if c == 1 {
			delete(g.count, k)
			acc.Del(t)
		} else {
			g.count[k] = c - 1
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
	support map[string]int
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
	return &DeltaProject{out: out, idx: idx, support: map[string]int{}}, nil
}

// Schema returns the projected schema.
func (p *DeltaProject) Schema() *schema.Extended { return p.out }

// Reset clears the support counts.
func (p *DeltaProject) Reset() { p.support = map[string]int{} }

// Apply projects the operand delta under support counting.
func (p *DeltaProject) Apply(child Delta) (Delta, error) {
	acc := NewDeltaAcc()
	for _, t := range child.Ins {
		pt := t.Project(p.idx)
		k := pt.Key()
		p.support[k]++
		if p.support[k] == 1 {
			acc.Add(pt)
		}
	}
	for _, t := range child.Del {
		pt := t.Project(p.idx)
		k := pt.Key()
		c, ok := p.support[k]
		if !ok || c == 0 {
			return Delta{}, fmt.Errorf("algebra: delta project underflow on %s", pt)
		}
		if c == 1 {
			delete(p.support, k)
			acc.Del(pt)
		} else {
			p.support[k] = c - 1
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// DeltaJoin: incremental ⋈ with per-side hash indexes.

// DeltaJoin is the delta form of the natural join. It maintains a hash
// index of each side's current tuples on the shared real join attributes;
// per instant it probes each side's delta against the other side's index,
// so the work is |ΔL|·fanout + |ΔR|·fanout instead of |L|+|R|.
type DeltaJoin struct {
	plan        *joinPlan
	left, right map[string]map[string]value.Tuple // join key → tuple key → tuple
}

// NewDeltaJoin derives the join plan for the two operand schemas and
// returns the delta operator.
func NewDeltaJoin(s1, s2 *schema.Extended) (*DeltaJoin, error) {
	plan, err := buildJoinPlan(s1, s2)
	if err != nil {
		return nil, err
	}
	return &DeltaJoin{
		plan:  plan,
		left:  map[string]map[string]value.Tuple{},
		right: map[string]map[string]value.Tuple{},
	}, nil
}

// Schema returns the joined schema.
func (j *DeltaJoin) Schema() *schema.Extended { return j.plan.out }

// Reset clears both hash indexes.
func (j *DeltaJoin) Reset() {
	j.left = map[string]map[string]value.Tuple{}
	j.right = map[string]map[string]value.Tuple{}
}

func indexAdd(idx map[string]map[string]value.Tuple, jk string, t value.Tuple) {
	b := idx[jk]
	if b == nil {
		b = map[string]value.Tuple{}
		idx[jk] = b
	}
	b[t.Key()] = t
}

func indexRemove(idx map[string]map[string]value.Tuple, jk string, t value.Tuple) error {
	b := idx[jk]
	k := t.Key()
	if _, ok := b[k]; !ok {
		return fmt.Errorf("algebra: delta join index underflow on %s", t)
	}
	delete(b, k)
	if len(b) == 0 {
		delete(idx, jk)
	}
	return nil
}

// Apply maintains the indexes and emits the joined delta. The left delta is
// applied first (probing the right side's PREVIOUS index), then the right
// delta (probing the left side's UPDATED index) — the standard asymmetric
// form that counts each changed pair exactly once; same-instant cross
// effects (e.g. left insert meeting a right delete) net out in the
// accumulator.
func (j *DeltaJoin) Apply(dl, dr Delta) (Delta, error) {
	acc := NewDeltaAcc()
	for _, t := range dl.Del {
		jk := t.Project(j.plan.idx1).Key()
		if err := indexRemove(j.left, jk, t); err != nil {
			return Delta{}, err
		}
		for _, r := range j.right[jk] {
			acc.Del(j.plan.combine(t, r))
		}
	}
	for _, t := range dl.Ins {
		jk := t.Project(j.plan.idx1).Key()
		indexAdd(j.left, jk, t)
		for _, r := range j.right[jk] {
			acc.Add(j.plan.combine(t, r))
		}
	}
	for _, t := range dr.Del {
		jk := t.Project(j.plan.idx2).Key()
		if err := indexRemove(j.right, jk, t); err != nil {
			return Delta{}, err
		}
		for _, l := range j.left[jk] {
			acc.Del(j.plan.combine(l, t))
		}
	}
	for _, t := range dr.Ins {
		jk := t.Project(j.plan.idx2).Key()
		indexAdd(j.right, jk, t)
		for _, l := range j.left[jk] {
			acc.Add(j.plan.combine(l, t))
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// DeltaSetOp: ∪, ∩, − with side-membership state.

// DeltaSetOp is the delta form of the three set operators. Union keeps a
// per-tuple support count (present in 1 or 2 sides); intersection and
// difference keep per-side membership sets and emit on the derived
// transitions.
type DeltaSetOp struct {
	kind  int // 0 union, 1 intersect, 2 diff — mirrors query.SetOpKind order
	sch   *schema.Extended
	left  map[string]value.Tuple
	right map[string]value.Tuple
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
	return &DeltaSetOp{
		kind:  kind,
		sch:   s1,
		left:  map[string]value.Tuple{},
		right: map[string]value.Tuple{},
	}, nil
}

// Schema returns the (shared) operand schema.
func (s *DeltaSetOp) Schema() *schema.Extended { return s.sch }

// Reset clears the side-membership sets.
func (s *DeltaSetOp) Reset() {
	s.left = map[string]value.Tuple{}
	s.right = map[string]value.Tuple{}
}

// Apply maintains side membership and emits the set-operator delta. The
// left delta is applied first; each side's emission tests the other side's
// state at that point (previous for left, updated for right), which counts
// every output transition exactly once; cross effects net out in the
// accumulator.
func (s *DeltaSetOp) Apply(dl, dr Delta) (Delta, error) {
	acc := NewDeltaAcc()
	apply := func(side, other map[string]value.Tuple, d Delta, leftSide bool) error {
		for _, t := range d.Del {
			k := t.Key()
			if _, ok := side[k]; !ok {
				return fmt.Errorf("algebra: delta set-op underflow on %s", t)
			}
			delete(side, k)
			_, inOther := other[k]
			switch s.kind {
			case DeltaUnion:
				if !inOther {
					acc.Del(t)
				}
			case DeltaIntersect:
				if inOther {
					acc.Del(t)
				}
			case DeltaDiff:
				if leftSide && !inOther {
					acc.Del(t)
				} else if !leftSide && inOther {
					acc.Add(t)
				}
			}
		}
		for _, t := range d.Ins {
			k := t.Key()
			side[k] = t
			_, inOther := other[k]
			switch s.kind {
			case DeltaUnion:
				if !inOther {
					acc.Add(t)
				}
			case DeltaIntersect:
				if inOther {
					acc.Add(t)
				}
			case DeltaDiff:
				if leftSide && !inOther {
					acc.Add(t)
				} else if !leftSide && inOther {
					acc.Del(t)
				}
			}
		}
		return nil
	}
	if err := apply(s.left, s.right, dl, true); err != nil {
		return Delta{}, err
	}
	if err := apply(s.right, s.left, dr, false); err != nil {
		return Delta{}, err
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
	groups map[string]*deltaGroup
}

type deltaGroup struct {
	*groupState
	members map[string]value.Tuple
	lastRow value.Tuple
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
	return &DeltaAggregate{out: out, plan: plan, keyIdx: keyIdx, groups: map[string]*deltaGroup{}}, nil
}

// Schema returns the aggregate result schema.
func (a *DeltaAggregate) Schema() *schema.Extended { return a.out }

// Reset clears all group state.
func (a *DeltaAggregate) Reset() { a.groups = map[string]*deltaGroup{} }

// Apply folds the operand delta into the group states and emits the
// changed groups' rows. Inserting a present member changes nothing (the
// operand is a set); deleting an absent one is an underflow.
func (a *DeltaAggregate) Apply(child Delta) (Delta, error) {
	dirty := map[string]*deltaGroup{}
	for _, t := range child.Ins {
		key := t.Project(a.keyIdx)
		k := key.Key()
		g := a.groups[k]
		if g == nil {
			g = &deltaGroup{groupState: a.plan.newGroup(key), members: map[string]value.Tuple{}}
			a.groups[k] = g
		}
		tk := t.Key()
		if _, ok := g.members[tk]; ok {
			continue
		}
		g.members[tk] = t
		a.plan.update(g.groupState, t, 1)
		dirty[k] = g
	}
	for _, t := range child.Del {
		k := t.Project(a.keyIdx).Key()
		g := a.groups[k]
		if g == nil {
			return Delta{}, fmt.Errorf("algebra: delta aggregate underflow on %s", t)
		}
		tk := t.Key()
		if _, ok := g.members[tk]; !ok {
			return Delta{}, fmt.Errorf("algebra: delta aggregate underflow on %s", t)
		}
		delete(g.members, tk)
		a.plan.update(g.groupState, t, -1)
		dirty[k] = g
	}
	// Rows of distinct groups differ in their key columns, and a group
	// emits only when its row changed, so the output is normalized without
	// netting.
	var out Delta
	for k, g := range dirty {
		if len(g.members) == 0 {
			if g.lastRow != nil {
				out.Del = append(out.Del, g.lastRow)
			}
			delete(a.groups, k)
			continue
		}
		row := a.plan.row(g.groupState, g.members)
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
