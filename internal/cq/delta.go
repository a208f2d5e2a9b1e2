package cq

// Semi-naive incremental tick evaluation. A registered plan compiles to a
// tree of delta operators (internal/algebra's DeltaSelect/DeltaJoin/… plus
// the executor's own time-aware sources below): per tick each node consumes
// its children's (inserts, deletes) and emits its own, so a tick with k
// changed tuples over an n-tuple window does O(k) work instead of
// re-evaluating the whole tree. The naive re-evaluate-then-diff path stays
// available per query (SetNaiveEvaluation) — it is the oracle the
// differential test harness diffs against and the escape hatch for plans a
// delta operator cannot cover.
//
// Correctness contract (Definition 9): at every instant the delta path's
// result relation AND its Definition 8 action set are bit-identical to the
// naive evaluator's. Everything here is arranged around that: aggregate
// groups keep the same per-group state the one-shot operator builds,
// updated per changed tuple with no key-sorted re-accumulation, and its
// sums are exact, so results do not depend on the order tuples arrive in;
// the §4.2 invocation cache (q.invCache) is shared between both paths
// and pruned to the same contents; S[·] operators keep q.streamPrev as the
// authoritative cross-instant state, so flipping a query between evaluators
// mid-run stays seamless.
//
// Recovery: delta operator state is NOT serialized. It is deterministically
// reconstructable from the relation event logs plus the snapshot-visible
// maps (prevOutput, invCache, streamPrev), so Restore just invalidates the
// program; the first post-restore tick rebuilds operator state from the
// restored world and the invocation cache (including SeedActive's orphan
// pins) keeps active β invocations from re-firing.

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"serena/internal/algebra"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// deltaProgram is one query's compiled delta-operator tree plus the
// continuity state deciding when incremental evaluation is trustworthy.
type deltaProgram struct {
	root *deltaNode
	// ready is true when every operator's state is valid as of lastAt. It is
	// cleared by Restore, by evaluation errors, and by SetNaiveEvaluation
	// switching back to the delta path; the next delta tick then rebuilds
	// all operator state from the relations (a "re-init" tick, O(n) once).
	ready  bool
	lastAt service.Instant
	// Cumulative observability (atomics: read by accessors while ticks run).
	ticks   atomic.Int64
	reinits atomic.Int64
}

func (p *deltaProgram) invalidate() { p.ready = false }

// deltaNode is one operator of the compiled tree: the plan node it
// implements, its derived schema, its children, the operator state (one of
// the delta op types), and cumulative row counters for the delta report.
type deltaNode struct {
	plan query.Node
	sch  *schema.Extended
	kids []*deltaNode
	op   any

	calls   atomic.Int64
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
}

// ---------------------------------------------------------------------------
// Time-aware source and sink operators (the cq-owned ones; pure relational
// operators come from internal/algebra).

// deltaBase feeds a finite relation's event log through a multiset→set
// gate: per tick it replays exactly the events recorded in (lastAt, at].
type deltaBase struct {
	name string
	gate *algebra.DeltaGate
}

func (b *deltaBase) apply(ev *evaluator, init bool, from service.Instant) (algebra.Delta, int, error) {
	x, ok := ev.exec.rels[b.name]
	if !ok {
		return algebra.Delta{}, 0, fmt.Errorf("unknown relation %q", b.name)
	}
	if init {
		tuples := x.At(ev.at)
		d, err := b.gate.Apply(tuples, nil)
		return d, len(tuples), err
	}
	// Cascade fast path: when the base is another query's finite output
	// relation and that producer evaluated this same instant, its published
	// (inserts, deletes) ARE this tick's events — feed them to the gate
	// directly instead of re-reading the event log. A producer that was
	// coalesced, re-initialized, or is not a query output falls through to
	// the log scan (identical contents, including the coalesced case: a
	// skipped producer appended no events).
	if ins, del, ok := ev.exec.producerDelta(b.name, from, ev.at); ok {
		d, err := b.gate.Apply(ins, del)
		return d, len(ins) + len(del), err
	}
	events := x.EventsIn(from, ev.at)
	var enter, leave []value.Tuple
	for _, e := range events {
		if e.Kind == stream.Insert {
			enter = append(enter, e.Tuple)
		} else {
			leave = append(leave, e.Tuple)
		}
	}
	d, err := b.gate.Apply(enter, leave)
	return d, len(events), err
}

// deltaWindow maintains W[period] over a stream incrementally: entering
// tuples are the stream's inserts in (max(lastAt, at−period), at], leaving
// tuples are the inserts falling off the back, (lastAt−period,
// min(lastAt, at−period)]. With consecutive ticks that is one instant in,
// one instant out; the interval forms also cover clock gaps, though the
// executor re-inits on gaps anyway (trimming may have dropped the back
// events).
type deltaWindow struct {
	name   string
	period service.Instant
	gate   *algebra.DeltaGate
}

func (w *deltaWindow) apply(ev *evaluator, init bool, from service.Instant) (algebra.Delta, int, error) {
	x, ok := ev.exec.rels[w.name]
	if !ok {
		return algebra.Delta{}, 0, fmt.Errorf("unknown relation %q", w.name)
	}
	// Same operator span the naive evaluator records; on the delta path
	// "rows" counts the events consumed this tick, not the window content.
	span := ev.ctx.Span.Child("cq.window")
	span.SetAttr("stream", w.name)
	span.SetAttrInt("period", int64(w.period))
	at := ev.at
	if init {
		enter := x.InsertedIn(at-w.period, at)
		d, err := w.gate.Apply(enter, nil)
		span.SetAttrInt("rows", int64(len(enter)))
		span.Finish()
		return d, len(enter), err
	}
	enterFrom := from
	if at-w.period > enterFrom {
		enterFrom = at - w.period
	}
	enter := x.InsertedIn(enterFrom, at)
	leaveTo := at - w.period
	if from < leaveTo {
		leaveTo = from
	}
	leave := x.InsertedIn(from-w.period, leaveTo)
	d, err := w.gate.Apply(enter, leave)
	span.SetAttrInt("rows", int64(len(enter)+len(leave)))
	span.Finish()
	return d, len(enter) + len(leave), err
}

// deltaStream implements S[insertion|deletion|heartbeat]. q.streamPrev[node]
// stays the authoritative "child set at the previous instant" map — shared
// with the naive evaluator and with snapshots — and is updated in place
// (O(k)). prevEmitted tracks what the operator emitted last instant so its
// own output delta can be derived for a downstream operator.
type deltaStream struct {
	node        *query.Stream
	kind        query.StreamKind
	prevEmitted *value.TupleMap[struct{}]
}

func (s *deltaStream) Reset() { s.prevEmitted = nil }

func (s *deltaStream) apply(ev *evaluator, init bool, child algebra.Delta) (algebra.Delta, error) {
	q := ev.q
	prev := q.streamPrev[s.node]
	var emitted *value.TupleMap[struct{}]
	if init {
		// Children were reset, so child.Ins IS the full current child set.
		cur := tupleSet(child.Ins)
		emitted = tupleSet(streamEmit(s.kind, cur, prev))
		q.streamPrev[s.node] = cur
	} else {
		// prev is the child's set at the previous instant (the init tick
		// set it), and the child's delta is normalized against it: its
		// inserts are new and its deletes were present.
		for _, t := range child.Del {
			prev.Delete(t)
		}
		for _, t := range child.Ins {
			prev.Put(t, struct{}{})
		}
		switch s.kind {
		case query.StreamInsertion:
			emitted = tupleSet(child.Ins)
		case query.StreamDeletion:
			emitted = tupleSet(child.Del)
		default:
			emitted = tupleSet(prev.Keys())
		}
	}
	if span := ev.ctx.Span.Child("cq.stream"); span != nil {
		span.SetAttr("kind", s.kind.String())
		span.SetAttrInt("emitted", int64(emitted.Len()))
		span.Finish()
	}
	out := algebra.Delta{Ins: missing(emitted, s.prevEmitted), Del: missing(s.prevEmitted, emitted)}
	s.prevEmitted = emitted
	return out, nil
}

// deltaInvoke implements β_bp incrementally. Per surviving input tuple it
// keeps the resolved service reference, the §4.2 invocation-cache key and
// the realized output tuples; per tick only newly inserted tuples (plus
// previously failed ones, which retry every instant exactly like the naive
// path) consult the shared invocation cache and, on a miss, invoke for
// real. The cache (q.invCache[node]) is reference-counted so its contents
// stay identical to the naive evaluator's prune-to-current-operand swap.
type deltaInvoke struct {
	node     *query.Invoke
	bp       schema.BindingPattern
	plan     *algebra.InvokePlan
	entries  value.TupleMap[*invEntry] // by input tuple
	cacheRef map[string]int
}

type invEntry struct {
	tuple    value.Tuple
	ref      string
	cacheKey string // "" when the service reference is NULL (never invokes)
	ok       bool   // outputs reflect a cached or successful invocation
	outs     []value.Tuple
}

func (iv *deltaInvoke) Reset() {
	iv.entries.Clear()
	iv.cacheRef = map[string]int{}
}

// apply wraps the operator in the same "cq.invoke" span the naive path
// records, re-parenting per-tuple β spans under it for the duration (the
// delta tree evaluates sequentially; parallel per-tuple invocations only
// read ctx.Span). The cache_hits/cache_misses attrs count actual §4.2
// cache consults — on a steady delta tick with no operand churn they are
// both zero, because persisting tuples never reach the cache at all.
func (iv *deltaInvoke) apply(ev *evaluator, init bool, child algebra.Delta) (algebra.Delta, error) {
	var hits, misses int64
	opSpan := ev.ctx.Span.Child("cq.invoke")
	if opSpan != nil {
		opSpan.SetAttr("bp", iv.bp.ID())
		saved := ev.ctx.Span
		ev.ctx.Span = opSpan
		defer func() { ev.ctx.Span = saved }()
	}
	out, err := iv.applyInner(ev, init, child, &hits, &misses)
	if opSpan != nil {
		opSpan.SetAttrInt("cache_hits", hits)
		opSpan.SetAttrInt("cache_misses", misses)
		if err != nil {
			opSpan.SetAttr("error", err.Error())
		}
		opSpan.Finish()
	}
	return out, err
}

func (iv *deltaInvoke) applyInner(ev *evaluator, init bool, child algebra.Delta, hits, misses *int64) (algebra.Delta, error) {
	acc := algebra.NewDeltaAcc()
	decremented := map[string]bool{}
	for _, t := range child.Del {
		e, _ := iv.entries.Get(t)
		if e == nil {
			return algebra.Delta{}, fmt.Errorf("cq: delta invoke underflow on %s", t)
		}
		iv.entries.Delete(t)
		for _, o := range e.outs {
			acc.Del(o)
		}
		if e.cacheKey != "" {
			iv.cacheRef[e.cacheKey]--
			decremented[e.cacheKey] = true
		}
	}
	for _, t := range child.Ins {
		p, present := iv.entries.Ref(t)
		if present {
			return algebra.Delta{}, fmt.Errorf("cq: delta invoke duplicate insert %s", t)
		}
		e := &invEntry{tuple: t}
		*p = e
		refVal := t[iv.plan.SvcIdx]
		if refVal.IsNull() {
			e.ok = true // no service to call — contributes no output, ever
		} else {
			ref, ok := refVal.AsString()
			if !ok {
				return algebra.Delta{}, fmt.Errorf("algebra: invoke %s: service attribute %q holds non-reference value %s",
					iv.bp.ID(), iv.bp.ServiceAttr, refVal)
			}
			e.ref = ref
			e.cacheKey = query.ActionKey(iv.bp.ID(), ref, t.Project(iv.plan.InIdx))
			iv.cacheRef[e.cacheKey]++
		}
	}

	// Everything unresolved retries this instant: fresh inserts, plus
	// entries whose invocation failed or was absorbed at an earlier instant
	// (the naive path re-invokes those every tick too — failed results are
	// never cached). Sorted for deterministic invocation order.
	var pending []*invEntry
	for _, e := range iv.entries.Values() {
		if !e.ok {
			pending = append(pending, e)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].tuple.Compare(pending[j].tuple) < 0 })

	cache := ev.q.invCache[iv.node]
	staged := map[string][]value.Tuple{}
	resolve := func(e *invEntry, rows []value.Tuple, cacheable bool) {
		newOuts := iv.plan.Realize(e.tuple, rows)
		for _, o := range e.outs {
			acc.Del(o)
		}
		for _, o := range newOuts {
			acc.Add(o)
		}
		e.outs = newOuts
		e.ok = cacheable
		if cacheable {
			staged[e.cacheKey] = rows
		}
	}
	var missed []*invEntry
	for _, e := range pending {
		if rows, ok := cache[e.cacheKey]; ok {
			obsInvokeCacheHits.Inc()
			*hits++
			resolve(e, rows, true)
			continue
		}
		missed = append(missed, e)
	}
	if len(missed) > 1 && !iv.bp.Active() && ev.ctx.MaxBatch() > 1 {
		// The batch planner dedupes identical (proto, ref, input) jobs, so
		// same-key duplicates are safe to hand over as-is (the naive path's
		// batch dispatch does the same).
		obsInvokeCacheMisses.Add(int64(len(missed)))
		*misses += int64(len(missed))
		refs := make([]string, len(missed))
		inputs := make([]value.Tuple, len(missed))
		for i, e := range missed {
			refs[i] = e.ref
			inputs[i] = e.tuple.Project(iv.plan.InIdx)
		}
		skipped := make([]bool, len(missed))
		brs := ev.ctx.InvokeBatchTracked(iv.bp, refs, inputs, skipped)
		for i, e := range missed {
			if brs[i].Err != nil {
				return algebra.Delta{}, fmt.Errorf("algebra: invoke %s: %w", iv.bp.ID(), brs[i].Err)
			}
			resolve(e, brs[i].Rows, !skipped[i])
		}
	} else {
		for _, e := range missed {
			// Same-tick duplicate keys resolve from the staged results of an
			// earlier miss in this loop — one physical invocation per distinct
			// (bp, ref, input), exactly like the naive path's next-map check.
			if rows, ok := staged[e.cacheKey]; ok {
				obsInvokeCacheHits.Inc()
				*hits++
				resolve(e, rows, true)
				continue
			}
			obsInvokeCacheMisses.Inc()
			*misses++
			rows, cacheable, err := ev.invokePhysical(iv.node, iv.bp, e.ref, e.tuple.Project(iv.plan.InIdx))
			if err != nil {
				return algebra.Delta{}, fmt.Errorf("algebra: invoke %s: %w", iv.bp.ID(), err)
			}
			resolve(e, rows, cacheable)
		}
	}

	// Commit the staged cache mutations only now that the whole operator
	// succeeded — the naive path's cache→next swap happens after a
	// successful algebra.Invoke, and an aborted operator must leave the
	// cache untouched there too.
	if cache == nil {
		cache = map[string][]value.Tuple{}
		ev.q.invCache[iv.node] = cache
	}
	for k, rows := range staged {
		cache[k] = rows
	}
	for ck := range decremented {
		if iv.cacheRef[ck] <= 0 {
			delete(iv.cacheRef, ck)
			delete(cache, ck)
		}
	}
	if init {
		// Parity with the naive prune-to-current-operand swap: drop cache
		// entries no rebuilt entry references (stale keys from before the
		// re-init, e.g. a restored snapshot of a since-shrunk operand).
		for ck := range cache {
			if iv.cacheRef[ck] <= 0 {
				delete(cache, ck)
			}
		}
	}
	return acc.Delta(), nil
}

// ---------------------------------------------------------------------------
// Compilation.

// compileDelta builds a query's delta program. Callers hold e.mu (Register
// does). An error means some plan shape has no delta operator yet; the
// query then runs naive-only.
func compileDelta(e *Executor, q *Query) (*deltaProgram, error) {
	env := schemaEnv{e}
	var build func(n query.Node) (*deltaNode, error)
	build = func(n query.Node) (*deltaNode, error) {
		sch, err := n.ResultSchema(env)
		if err != nil {
			return nil, err
		}
		dn := &deltaNode{plan: n, sch: sch}
		// Window reads its base stream's event log directly — the base child
		// is not compiled (an unwindowed infinite base has no delta form).
		if w, ok := n.(*query.Window); ok {
			base := w.Child.(*query.Base) // validated at registration
			dn.op = &deltaWindow{name: base.Name, period: service.Instant(w.Period), gate: algebra.NewDeltaGate()}
			return dn, nil
		}
		for _, c := range n.Children() {
			k, err := build(c)
			if err != nil {
				return nil, err
			}
			dn.kids = append(dn.kids, k)
		}
		childSch := func(i int) *schema.Extended { return dn.kids[i].sch }
		switch t := n.(type) {
		case *query.Base:
			x, ok := e.rels[t.Name]
			if !ok {
				return nil, fmt.Errorf("unknown relation %q", t.Name)
			}
			if x.Infinite() {
				return nil, fmt.Errorf("stream %q used without a window", t.Name)
			}
			dn.op = &deltaBase{name: t.Name, gate: algebra.NewDeltaGate()}
		case *query.Select:
			dn.op, err = algebra.NewDeltaSelect(childSch(0), t.Formula)
		case *query.Project:
			dn.op, err = algebra.NewDeltaProject(childSch(0), t.Attrs)
		case *query.Rename:
			dn.op, err = algebra.NewDeltaRename(childSch(0), t.Old, t.New)
		case *query.Assign:
			if t.Src != "" {
				dn.op, err = algebra.NewDeltaAssignAttr(childSch(0), t.Attr, t.Src)
			} else {
				dn.op, err = algebra.NewDeltaAssignConst(childSch(0), t.Attr, t.Const)
			}
		case *query.Join:
			dn.op, err = algebra.NewDeltaJoin(childSch(0), childSch(1))
		case *query.SetOp:
			var kind int
			switch t.Kind {
			case query.UnionOp:
				kind = algebra.DeltaUnion
			case query.IntersectOp:
				kind = algebra.DeltaIntersect
			case query.DiffOp:
				kind = algebra.DeltaDiff
			default:
				return nil, fmt.Errorf("cq: no delta operator for set op %v", t.Kind)
			}
			dn.op, err = algebra.NewDeltaSetOp(kind, childSch(0), childSch(1))
		case *query.Aggregate:
			dn.op, err = algebra.NewDeltaAggregate(childSch(0), t.GroupBy, t.Aggs)
		case *query.Stream:
			dn.op = &deltaStream{node: t, kind: t.Kind}
		case *query.Invoke:
			bp, ferr := childSch(0).FindBP(t.Proto, t.ServiceAttr)
			if ferr != nil {
				return nil, ferr
			}
			plan, perr := algebra.NewInvokePlan(childSch(0), bp)
			if perr != nil {
				return nil, perr
			}
			iv := &deltaInvoke{node: t, bp: bp, plan: plan}
			iv.Reset()
			dn.op = iv
		default:
			return nil, fmt.Errorf("cq: no delta operator for %T", n)
		}
		if err != nil {
			return nil, err
		}
		return dn, nil
	}
	root, err := build(q.plan)
	if err != nil {
		return nil, err
	}
	return &deltaProgram{root: root}, nil
}

// resetAll clears every operator's state ahead of a re-init tick.
func (p *deltaProgram) resetAll() {
	var walk func(n *deltaNode)
	walk = func(n *deltaNode) {
		switch op := n.op.(type) {
		case *deltaBase:
			op.gate.Reset()
		case *deltaWindow:
			op.gate.Reset()
		case interface{ Reset() }: // every other operator
			op.Reset()
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(p.root)
}

// ---------------------------------------------------------------------------
// Evaluation.

// evalDelta runs one incremental tick for the query: it walks the compiled
// tree bottom-up, then turns the root delta into (result relation, current
// output set, inserted, deleted) for evalQuery's shared tail. cur is
// q.prevOutput mutated in place on steady-state ticks (O(k)); re-init
// ticks rebuild it.
func (ev *evaluator) evalDelta() (res *algebra.XRelation, cur *value.TupleMap[struct{}], inserted, deleted []value.Tuple, err error) {
	q := ev.q
	p := q.delta
	init := !p.ready || p.lastAt != ev.at-1
	if init {
		// Gaps in this query's evaluation (overload coalescing, replay
		// AdvanceTo) also land here: window back-events may already be
		// trimmed, so catching up from the event log is not safe — rebuild.
		p.resetAll()
		p.reinits.Add(1)
		obsDeltaReinits.Inc()
	}
	fail := func(e error) (*algebra.XRelation, *value.TupleMap[struct{}], []value.Tuple, []value.Tuple, error) {
		p.invalidate()
		return nil, nil, nil, nil, e
	}
	d, err := ev.evalDeltaNode(p.root, init, p.lastAt)
	if err != nil {
		return fail(err)
	}
	if init {
		cur = tupleSet(d.Ins)
		inserted, deleted = missing(cur, q.prevOutput), missing(q.prevOutput, cur)
	} else {
		cur = q.prevOutput
		for _, t := range d.Del {
			if !cur.Delete(t) {
				return fail(fmt.Errorf("cq: delta output underflow on %s", t))
			}
			deleted = append(deleted, t)
		}
		for _, t := range d.Ins {
			if _, present := cur.Ref(t); present {
				return fail(fmt.Errorf("cq: delta output duplicate insert %s", t))
			}
			inserted = append(inserted, t)
		}
	}
	if !init && d.Empty() && q.lastRes != nil {
		res = q.lastRes // unchanged output: reuse last materialization
	} else {
		// cur stays live as q.prevOutput, so the result wraps a copy.
		res = algebra.FromSet(p.root.sch, cur.Clone())
	}
	p.ready = true
	p.lastAt = ev.at
	p.ticks.Add(1)
	return res, cur, inserted, deleted, nil
}

// evalDeltaNode evaluates one operator: children first, then the node's
// delta op, recording per-node row counters.
func (ev *evaluator) evalDeltaNode(n *deltaNode, init bool, from service.Instant) (algebra.Delta, error) {
	kids := make([]algebra.Delta, len(n.kids))
	for i, k := range n.kids {
		d, err := ev.evalDeltaNode(k, init, from)
		if err != nil {
			return algebra.Delta{}, err
		}
		kids[i] = d
	}
	var (
		out  algebra.Delta
		in   int
		err  error
		self = true // count children's emissions as this node's rows_in
	)
	switch op := n.op.(type) {
	case *deltaBase:
		out, in, err = op.apply(ev, init, from)
		self = false
	case *deltaWindow:
		out, in, err = op.apply(ev, init, from)
		self = false
	case *deltaStream:
		out, err = op.apply(ev, init, kids[0])
	case *deltaInvoke:
		out, err = op.apply(ev, init, kids[0])
	case interface {
		Apply(algebra.Delta) (algebra.Delta, error)
	}: // σ, π, ρ, α, aggregation
		out, err = op.Apply(kids[0])
	case interface {
		Apply(l, r algebra.Delta) (algebra.Delta, error)
	}: // ⋈ and the set operators
		out, err = op.Apply(kids[0], kids[1])
	default:
		err = fmt.Errorf("cq: no delta operator for %T", n.plan)
	}
	if err != nil {
		return algebra.Delta{}, err
	}
	if self {
		for _, d := range kids {
			in += d.Rows()
		}
	}
	n.calls.Add(1)
	n.rowsIn.Add(int64(in))
	n.rowsOut.Add(int64(out.Rows()))
	obsDeltaRowsIn.Add(int64(in))
	obsDeltaRowsOut.Add(int64(out.Rows()))
	return out, nil
}

// ---------------------------------------------------------------------------
// Control & observability surface.

// SetNaiveEvaluation pins a registered query to the naive
// re-evaluate-then-diff path (naive=true) or back to the incremental delta
// path (naive=false, the default when the plan compiled). Switching is safe
// mid-run: both paths maintain the same cross-instant maps (prevOutput,
// invCache, streamPrev), and re-enabling deltas forces a state rebuild on
// the next tick.
func (e *Executor) SetNaiveEvaluation(name string, naive bool) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	q, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("cq: unknown query %q", name)
	}
	q.mu.Lock()
	q.naive = naive
	q.mu.Unlock()
	if !naive && q.delta != nil {
		q.delta.invalidate()
	}
	return nil
}

// EvaluationMode reports which evaluator the query is currently using:
// "delta" (incremental) or "naive" (re-evaluate-then-diff — pinned by
// SetNaiveEvaluation, or the automatic fallback when the plan has no delta
// form).
func (q *Query) EvaluationMode() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.delta != nil && !q.naive {
		return "delta"
	}
	return "naive"
}

// EvalCounts returns how many instants were evaluated by the delta path
// and by the naive path since registration.
func (q *Query) EvalCounts() (delta, naive int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deltaTicks, q.naiveTicks
}

// DeltaReport renders the compiled delta program with cumulative per-
// operator row counts, one operator per line in plan order — the
// continuous-query analogue of EXPLAIN ANALYZE:
//
//	select[temp > 30]   calls=12 rows_in=3 rows_out=1
//	  window[5]         calls=12 rows_in=7 rows_out=7
//
// Returns "" when the query has no delta program.
func (q *Query) DeltaReport() string {
	if q.delta == nil {
		return ""
	}
	type line struct {
		label string
		n     *deltaNode
		depth int
	}
	var lines []line
	var walk func(n *deltaNode, depth int)
	walk = func(n *deltaNode, depth int) {
		lines = append(lines, line{query.OpLabel(n.plan), n, depth})
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	walk(q.delta.root, 0)
	width := 0
	for _, l := range lines {
		if w := 2*l.depth + len([]rune(l.label)); w > width {
			width = w
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "delta program: %d tick(s), %d re-init(s)\n",
		q.delta.ticks.Load(), q.delta.reinits.Load())
	for _, l := range lines {
		indented := strings.Repeat("  ", l.depth) + l.label
		pad := width - len([]rune(indented))
		fmt.Fprintf(&b, "%s%s  calls=%d rows_in=%d rows_out=%d\n",
			indented, strings.Repeat(" ", pad),
			l.n.calls.Load(), l.n.rowsIn.Load(), l.n.rowsOut.Load())
	}
	return b.String()
}
