package algebra

import (
	"fmt"
	"sync"
	"sync/atomic"

	"serena/internal/obs"
	"serena/internal/schema"
	"serena/internal/value"
)

// Operator cardinality metrics, recorded once per operator evaluation (not
// per tuple) so always-on instrumentation stays off the per-row path.
var (
	obsSelectCalls = obs.Default.Counter("algebra.select.calls")
	obsSelectIn    = obs.Default.Counter("algebra.select.rows_in")
	obsSelectOut   = obs.Default.Counter("algebra.select.rows_out")
	obsJoinCalls   = obs.Default.Counter("algebra.join.calls")
	obsJoinIn      = obs.Default.Counter("algebra.join.rows_in")
	obsJoinOut     = obs.Default.Counter("algebra.join.rows_out")
	obsAssignCalls = obs.Default.Counter("algebra.assign.calls")
	obsAssignRows  = obs.Default.Counter("algebra.assign.rows")
	obsInvokeOps   = obs.Default.Counter("algebra.invoke.calls")
	obsInvokeJobs  = obs.Default.Counter("algebra.invoke.jobs")
	obsBatchOps    = obs.Default.Counter("algebra.invoke.batched_calls")
)

// Invoker abstracts the invocation of a binding pattern on a service for
// one input tuple (the paper's invoke_ψ of Definition 1, as used by the
// invocation operator of Table 3f). Implementations handle memoization of
// passive prototypes, action-set recording for active ones, and the actual
// local or remote call.
type Invoker interface {
	Invoke(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error)
}

// InvokerFunc adapts a function to the Invoker interface.
type InvokerFunc func(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error) {
	return f(bp, ref, input)
}

// ---------------------------------------------------------------------------
// Set operators (Section 3.1.1): defined over two X-Relations with the same
// extended schema; the result keeps that schema.

// Union computes r1 ∪ r2.
func Union(r1, r2 *XRelation) (*XRelation, error) { return setOp("union", r1, r2) }

// Intersect computes r1 ∩ r2.
func Intersect(r1, r2 *XRelation) (*XRelation, error) { return setOp("intersect", r1, r2) }

// Diff computes r1 − r2.
func Diff(r1, r2 *XRelation) (*XRelation, error) { return setOp("difference", r1, r2) }

// setOp computes the named set operator: the tuples of r1 it keeps (all
// for union, those in r2 for intersect, the others for difference), then
// for union the tuples of r2.
func setOp(op string, r1, r2 *XRelation) (*XRelation, error) {
	if !r1.Schema().Equal(r2.Schema()) {
		return nil, fmt.Errorf("algebra: %s requires identical extended schemas (%s vs %s)",
			op, r1.Schema().Name(), r2.Schema().Name())
	}
	out := Empty(r1.Schema())
	for _, t := range r1.Tuples() {
		if op == "union" || r2.Contains(t) == (op == "intersect") {
			out.add(t)
		}
	}
	if op == "union" {
		for _, t := range r2.Tuples() {
			out.add(t)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Relational operators (Section 3.1.2, Table 3 a–d).

// Project computes π_Y(r) (Table 3a): the schema shrinks to Y (binding
// patterns that lose their service, input or output attributes are dropped)
// and tuples are projected onto the real part of Y.
func Project(r *XRelation, names []string) (*XRelation, error) {
	outSch, err := schema.ProjectSchema(r.Schema(), names)
	if err != nil {
		return nil, err
	}
	idx, err := r.Schema().RealIndexes(outSch.RealNames())
	if err != nil {
		return nil, err
	}
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(t.Project(idx))
	}
	return out, nil
}

// Select computes σ_F(r) (Table 3b): the schema is unchanged and F may only
// reference real attributes.
func Select(r *XRelation, f Formula) (*XRelation, error) {
	if err := f.Validate(r.Schema()); err != nil {
		return nil, err
	}
	out := Empty(r.Schema())
	for _, t := range r.Tuples() {
		if f.Eval(r.Schema(), t) {
			out.add(t)
		}
	}
	obsSelectCalls.Inc()
	obsSelectIn.Add(int64(r.Len()))
	obsSelectOut.Add(int64(out.Len()))
	return out, nil
}

// Rename computes ρ_{A→B}(r) (Table 3c): tuples are unchanged (the real
// layout keeps its coordinates), only the schema is relabeled and binding
// patterns re-checked.
func Rename(r *XRelation, oldName, newName string) (*XRelation, error) {
	outSch, err := schema.RenameSchema(r.Schema(), oldName, newName)
	if err != nil {
		return nil, err
	}
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(t)
	}
	return out, nil
}

// joinPlan is the precomputed physical layout of a natural join: the output
// schema, each side's projection onto the shared real join attributes, and
// the per-coordinate source of the result tuple. Deriving it once lets the
// one-shot operator and the delta operator share identical tuple assembly.
type joinPlan struct {
	out        *schema.Extended
	idx1, idx2 []int
	steps      []joinStep
}

type joinStep struct {
	fromR1 bool
	pos    int
}

func buildJoinPlan(s1, s2 *schema.Extended) (*joinPlan, error) {
	out, err := schema.JoinSchema(s1, s2)
	if err != nil {
		return nil, err
	}
	joinAttrs := schema.SharedRealJoinAttrs(s1, s2)
	idx1, err := s1.RealIndexes(joinAttrs)
	if err != nil {
		return nil, err
	}
	idx2, err := s2.RealIndexes(joinAttrs)
	if err != nil {
		return nil, err
	}
	// Result tuple construction: for every real attribute of the output
	// schema take the value from r1 when it is real there, else from r2.
	steps := make([]joinStep, 0, out.RealArity())
	for _, name := range out.RealNames() {
		if s1.IsReal(name) {
			steps = append(steps, joinStep{true, s1.RealIndex(name)})
		} else {
			steps = append(steps, joinStep{false, s2.RealIndex(name)})
		}
	}
	return &joinPlan{out: out, idx1: idx1, idx2: idx2, steps: steps}, nil
}

func (p *joinPlan) combine(t1, t2 value.Tuple) value.Tuple {
	nt := make(value.Tuple, len(p.steps))
	for i, s := range p.steps {
		if s.fromR1 {
			nt[i] = t1[s.pos]
		} else {
			nt[i] = t2[s.pos]
		}
	}
	return nt
}

// NaturalJoin computes r1 ⋈ r2 (Table 3d). Only attributes real in BOTH
// operands imply a join predicate; when none exists the tuple-level result
// is a Cartesian product. Attributes real in one operand and virtual in the
// other are implicitly realized (their value comes from the real side).
func NaturalJoin(r1, r2 *XRelation) (*XRelation, error) {
	plan, err := buildJoinPlan(r1.Schema(), r2.Schema())
	if err != nil {
		return nil, err
	}

	// Hash join on the shared real attributes.
	var buckets value.TupleMap[[]value.Tuple]
	for _, t2 := range r2.Tuples() {
		b, _ := buckets.Ref(t2.Project(plan.idx2))
		*b = append(*b, t2)
	}
	out := Empty(plan.out)
	for _, t1 := range r1.Tuples() {
		b, _ := buckets.Get(t1.Project(plan.idx1))
		for _, t2 := range b {
			out.add(plan.combine(t1, t2))
		}
	}
	obsJoinCalls.Inc()
	obsJoinIn.Add(int64(r1.Len() + r2.Len()))
	obsJoinOut.Add(int64(out.Len()))
	return out, nil
}

// ---------------------------------------------------------------------------
// Realization operators (Section 3.1.3, Table 3 e–f).

// assignConstGen derives the α_{attr:=v} output schema and the per-tuple
// generator for the realized coordinate, shared by the one-shot and delta
// operators.
func assignConstGen(in *schema.Extended, attr string, v value.Value) (*schema.Extended, func(value.Tuple) value.Value, error) {
	outSch, err := schema.AssignSchema(in, attr, "")
	if err != nil {
		return nil, nil, err
	}
	want, _ := outSch.TypeOf(attr)
	cv, ok := value.Coerce(v, want)
	if !ok {
		return nil, nil, fmt.Errorf("algebra: assignment %s := %s: constant type %s does not match attribute type %s",
			attr, v, v.Kind(), want)
	}
	return outSch, func(value.Tuple) value.Value { return cv }, nil
}

// assignAttrGen derives the α_{attr:=src} output schema and generator.
func assignAttrGen(in *schema.Extended, attr, src string) (*schema.Extended, func(value.Tuple) value.Value, error) {
	outSch, err := schema.AssignSchema(in, attr, src)
	if err != nil {
		return nil, nil, err
	}
	want, _ := outSch.TypeOf(attr)
	srcIdx := in.RealIndex(src)
	return outSch, func(t value.Tuple) value.Value {
		v, ok := value.Coerce(t[srcIdx], want)
		if !ok {
			return value.NewNull() // unreachable: AssignSchema checked types
		}
		return v
	}, nil
}

// AssignConst computes α_{A:=a}(r) (Table 3e, constant form): the virtual
// attribute A becomes real and every tuple gains the constant a at A's
// coordinate. The constant must have (or coerce to) A's declared type.
func AssignConst(r *XRelation, attr string, v value.Value) (*XRelation, error) {
	outSch, gen, err := assignConstGen(r.Schema(), attr, v)
	if err != nil {
		return nil, err
	}
	return realize(r, outSch, gen), nil
}

// AssignAttr computes α_{A:=B}(r) (Table 3e, attribute form): A becomes
// real with, per tuple, the value of the real attribute B.
func AssignAttr(r *XRelation, attr, src string) (*XRelation, error) {
	outSch, gen, err := assignAttrGen(r.Schema(), attr, src)
	if err != nil {
		return nil, err
	}
	return realize(r, outSch, gen), nil
}

// realize rebuilds tuples for a schema where exactly the named attributes
// changed from virtual to real, pulling new coordinates from gen.
func realize(r *XRelation, outSch *schema.Extended, gen func(value.Tuple) value.Value) *XRelation {
	obsAssignCalls.Inc()
	obsAssignRows.Add(int64(r.Len()))
	plan := buildRealizePlan(r.Schema(), outSch)
	out := Empty(outSch)
	for _, t := range r.Tuples() {
		out.add(realizeTuple(t, plan, gen))
	}
	return out
}

// realizeTuple assembles one output tuple from an input tuple and the
// realize plan, generating newly realized coordinates with gen.
func realizeTuple(t value.Tuple, plan []realizeStep, gen func(value.Tuple) value.Value) value.Tuple {
	nt := make(value.Tuple, len(plan))
	for i, p := range plan {
		if p.old >= 0 {
			nt[i] = t[p.old]
		} else {
			nt[i] = gen(t)
		}
	}
	return nt
}

type realizeStep struct {
	name string
	old  int // coordinate in the input tuple, or -1 for newly realized
}

func buildRealizePlan(in, out *schema.Extended) []realizeStep {
	plan := make([]realizeStep, 0, out.RealArity())
	for _, name := range out.RealNames() {
		plan = append(plan, realizeStep{name: name, old: in.RealIndex(name)})
	}
	return plan
}

// InvokePlan is the precomputed physical layout of an invocation operator
// β_bp over a fixed operand schema: the output schema, the coordinates of
// the service reference and the prototype's input attributes, and the
// assembly plan mapping (input tuple, prototype output row) pairs to output
// tuples. Deriving it once per plan lets the one-shot operator and the
// continuous executor's delta operator share identical tuple assembly.
type InvokePlan struct {
	OutSch *schema.Extended
	SvcIdx int   // coordinate of bp's service attribute in the input tuple
	InIdx  []int // coordinates of the prototype's input attributes
	plan   []realizeStep
	outPos []int // per plan step: position in the prototype output row, or -1
}

// NewInvokePlan derives the invocation layout for bp over the operand
// schema.
func NewInvokePlan(in *schema.Extended, bp schema.BindingPattern) (*InvokePlan, error) {
	outSch, err := schema.InvokeSchema(in, bp)
	if err != nil {
		return nil, err
	}
	inIdx, err := in.RealIndexes(bp.Proto.Input.Names())
	if err != nil {
		return nil, err
	}
	outNames := bp.Proto.Output
	plan := buildRealizePlan(in, outSch)
	// Positions of realized attributes within the prototype output tuple.
	outPos := make([]int, len(plan))
	for i, p := range plan {
		if p.old >= 0 {
			outPos[i] = -1
		} else {
			outPos[i] = outNames.Index(p.name)
		}
	}
	return &InvokePlan{
		OutSch: outSch,
		SvcIdx: in.RealIndex(bp.ServiceAttr),
		InIdx:  inIdx,
		plan:   plan,
		outPos: outPos,
	}, nil
}

// Realize replicates the input tuple once per prototype output row, each
// copy gaining the realized output attributes.
func (p *InvokePlan) Realize(in value.Tuple, rows []value.Tuple) []value.Tuple {
	if len(rows) == 0 {
		return nil
	}
	out := make([]value.Tuple, len(rows))
	for r, row := range rows {
		nt := make(value.Tuple, len(p.plan))
		for i, step := range p.plan {
			if step.old >= 0 {
				nt[i] = in[step.old]
			} else {
				nt[i] = row[p.outPos[i]]
			}
		}
		out[r] = nt
	}
	return out
}

// Invoke computes β_bp(r) (Table 3f): every input tuple triggers one
// invocation of bp's prototype on the service its service attribute
// references; the input tuple is replicated once per output tuple, gaining
// the realized output attributes. Tuples whose service reference is NULL
// contribute no output (there is no service to call). Invocation errors
// abort the operator — error policy (skip/fail) belongs to the caller's
// Invoker, which may substitute empty results.
func Invoke(r *XRelation, bp schema.BindingPattern, inv Invoker) (*XRelation, error) {
	ip, err := NewInvokePlan(r.Schema(), bp)
	if err != nil {
		return nil, err
	}
	svcIdx, inIdx := ip.SvcIdx, ip.InIdx

	// Collect the invocation work list first (skipping NULL references),
	// then run it — sequentially, or concurrently when the Invoker allows
	// (Section 5.1: invocations are handled asynchronously; Section 3.2:
	// order has no impact at a given instant). Results are assembled in
	// input order either way, so the output is deterministic.
	type job struct {
		tuple value.Tuple
		ref   string
		input value.Tuple
	}
	jobs := make([]job, 0, r.Len())
	for _, t := range r.Tuples() {
		refVal := t[svcIdx]
		if refVal.IsNull() {
			continue
		}
		ref, ok := refVal.AsString()
		if !ok {
			return nil, fmt.Errorf("algebra: invoke %s: service attribute %q holds non-reference value %s",
				bp.ID(), bp.ServiceAttr, refVal)
		}
		jobs = append(jobs, job{tuple: t, ref: ref, input: t.Project(inIdx)})
	}
	obsInvokeOps.Inc()
	obsInvokeJobs.Add(int64(len(jobs)))

	results := make([][]value.Tuple, len(jobs))
	workers := 1
	if pi, ok := inv.(ParallelInvoker); ok {
		if n := pi.MaxParallel(); n > workers {
			workers = n
		}
	}
	// Batch dispatch: a BatchInvoker takes the whole work list at once —
	// the planner behind it dedupes identical (proto, ref, input) pairs,
	// coalesces concurrent duplicates and groups remote calls per service
	// into multi-invocation wire frames. Restricted to PASSIVE binding
	// patterns: an active β job is one action of the Definition 8 action
	// set, and batching must not change how those fire (active jobs keep
	// the per-tuple pool below).
	if bi, ok := inv.(BatchInvoker); ok && !bp.Active() && len(jobs) > 1 && bi.MaxBatch() > 1 {
		refs := make([]string, len(jobs))
		inputs := make([]value.Tuple, len(jobs))
		for i, j := range jobs {
			refs[i] = j.ref
			inputs[i] = j.input
		}
		obsBatchOps.Inc()
		brs := bi.InvokeBatch(bp, refs, inputs)
		for i, br := range brs {
			if br.Err != nil { // first error in input order aborts
				return nil, fmt.Errorf("algebra: invoke %s: %w", bp.ID(), br.Err)
			}
			results[i] = br.Rows
		}
	} else if workers > 1 && len(jobs) > 1 {
		if workers > len(jobs) {
			workers = len(jobs)
		}
		var (
			wg       sync.WaitGroup
			next     int64 = -1
			failed   atomic.Bool
			errMu    sync.Mutex
			firstErr error
			errIdx   = len(jobs)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// A fatal error aborts the whole operator, so once one is
					// recorded no NEW invocation may fire: under FAIL semantics
					// every extra call is a side effect whose result is
					// discarded — it would silently grow the Definition 8
					// action set. Jobs already in flight on other workers run
					// to completion (they were scheduled before the failure).
					if failed.Load() {
						return
					}
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(jobs) {
						return
					}
					rows, err := inv.Invoke(bp, jobs[i].ref, jobs[i].input)
					if err != nil {
						errMu.Lock()
						if i < errIdx { // keep the first error in input order
							errIdx, firstErr = i, err
						}
						errMu.Unlock()
						failed.Store(true)
						return
					}
					results[i] = rows
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("algebra: invoke %s: %w", bp.ID(), firstErr)
		}
	} else {
		for i, j := range jobs {
			rows, err := inv.Invoke(bp, j.ref, j.input)
			if err != nil {
				return nil, fmt.Errorf("algebra: invoke %s: %w", bp.ID(), err)
			}
			results[i] = rows
		}
	}

	out := Empty(ip.OutSch)
	for i, j := range jobs {
		for _, nt := range ip.Realize(j.tuple, results[i]) {
			out.add(nt)
		}
	}
	return out, nil
}

// ParallelInvoker is an optional Invoker extension: MaxParallel bounds how
// many invocations the invocation operator may run concurrently (values < 2
// keep the sequential path). Implementations must make Invoke safe for
// concurrent use.
type ParallelInvoker interface {
	Invoker
	MaxParallel() int
}

// BatchResult is one job's outcome from a batched dispatch: rows on
// success, or the error the invoker's policy decided to surface (absorbed
// failures come back as Err == nil with the policy's stand-in rows).
type BatchResult struct {
	Rows []value.Tuple
	Err  error
}

// BatchInvoker is an optional Invoker extension: InvokeBatch receives the
// invocation operator's whole work list for one PASSIVE binding pattern and
// returns positional results (out[i] belongs to (refs[i], inputs[i])).
// Implementations own deduplication, coalescing and transport batching;
// MaxBatch() < 2 disables the batch path (the per-tuple pool is used
// instead — the batching ablation).
type BatchInvoker interface {
	Invoker
	InvokeBatch(bp schema.BindingPattern, refs []string, inputs []value.Tuple) []BatchResult
	MaxBatch() int
}
