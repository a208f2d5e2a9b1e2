package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"serena/internal/algebra"
	"serena/internal/obs"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/trace"
	"serena/internal/value"
)

// β invocation counters as seen from the algebra (the service layer counts
// physical calls; these split them by binding-pattern mode and add memo and
// degradation outcomes).
var (
	obsQueryActive    = obs.Default.Counter("query.invoke.active")
	obsQueryPassive   = obs.Default.Counter("query.invoke.passive")
	obsQueryMemoized  = obs.Default.Counter("query.invoke.memoized")
	obsQueryDegraded  = obs.Default.Counter("query.invoke.degraded")
	obsQueryCoalesced = obs.Default.Counter("query.invoke.coalesced")
)

// Action is one element of a query's action set (Definition 8): the
// invocation of an active binding pattern on a service with an input tuple.
type Action struct {
	BP    string // binding pattern identity "proto[serviceAttr]"
	Ref   string // service reference
	Input value.Tuple
}

// Key is the set identity of the action.
func (a Action) Key() string { return ActionKey(a.BP, a.Ref, a.Input) }

// ActionKey is the identity of one invocation of binding pattern bp on
// service ref with an input tuple: "bp|ref|input.Key()". It keys action
// sets, the continuous executor's invocation cache and the WAL replay
// ledger. Checkpoints store these keys, so its bytes must not change.
func ActionKey(bp, ref string, input value.Tuple) string {
	return bp + "|" + ref + "|" + input.Key()
}

// String renders "(bp, ref, input)" like Example 6.
func (a Action) String() string {
	return fmt.Sprintf("(%s, %s, %s)", a.BP, a.Ref, a.Input)
}

// ActionSet is the set of actions triggered by a query against an
// environment: Actions_p(q) of Definition 8. It is safe for concurrent use
// (the invocation operator may fire asynchronously, Section 5.1).
type ActionSet struct {
	mu    sync.Mutex
	byKey map[string]Action
}

// NewActionSet returns an empty action set.
func NewActionSet() *ActionSet { return &ActionSet{byKey: make(map[string]Action)} }

// Add records an action (idempotent — it is a set).
func (s *ActionSet) Add(a Action) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byKey[a.Key()] = a
}

// Len returns the cardinality.
func (s *ActionSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Contains reports membership.
func (s *ActionSet) Contains(a Action) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byKey[a.Key()]
	return ok
}

// Equal reports set equality — the action-set half of query equivalence
// (Definition 9).
func (s *ActionSet) Equal(o *ActionSet) bool {
	sk := s.keySet()
	ok := o.keySet()
	if len(sk) != len(ok) {
		return false
	}
	for k := range sk {
		if !ok[k] {
			return false
		}
	}
	return true
}

func (s *ActionSet) keySet() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool, len(s.byKey))
	for k := range s.byKey {
		out[k] = true
	}
	return out
}

// Sorted returns the actions in deterministic order.
func (s *ActionSet) Sorted() []Action {
	s.mu.Lock()
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	out := make([]Action, len(keys))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		out[i] = s.byKey[k]
	}
	return out
}

// String renders "{(bp, ref, input), …}".
func (s *ActionSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Sorted() {
		parts = append(parts, a.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ContinuousHooks is implemented by the continuous executor's naive
// evaluator (internal/cq) to give the plan its Section 4 semantics: Window
// reads the last instants of a stream, Stream emits S[·] deltas across
// instants, and Invoke fires only for newly inserted operand tuples. The
// relational operators need no hook — over instantaneous relations they
// are the one-shot algebra. Stream and Invoke receive their operand
// already evaluated through Context.Eval; a window's operand is a stream,
// which no instantaneous environment holds. One-shot evaluation leaves the
// hooks nil.
type ContinuousHooks interface {
	EvalWindow(w *Window, ctx *Context) (*algebra.XRelation, error)
	EvalStream(s *Stream, child *algebra.XRelation, ctx *Context) (*algebra.XRelation, error)
	EvalInvoke(i *Invoke, child *algebra.XRelation, bp schema.BindingPattern, ctx *Context) (*algebra.XRelation, error)
}

// Context carries everything one evaluation needs: the environment, the
// service registry, the evaluation instant τ, the recorded action set, the
// per-instant memo for passive invocations, and optional continuous hooks.
type Context struct {
	Env      Environment
	Registry *service.Registry
	At       service.Instant
	Actions  *ActionSet

	// Memo caches passive invocation results within this instant. Nil
	// disables memoization (ablation: every tuple re-invokes).
	Memo *service.Memo

	// Continuous is set by the continuous executor; nil for one-shot
	// queries.
	Continuous ContinuousHooks

	// Ops, when set, holds the OpStats Eval records into, one per tracked
	// plan node (EXPLAIN ANALYZE installs TrackOps of its plan). Nil —
	// the common case — records nothing.
	Ops map[Node]*OpStats
	// opIn accumulates the rows returned by the operands of the tracked
	// node being evaluated: that node's rows_in.
	opIn *int64

	// OnInvokeError, when non-nil, observes every physical invocation
	// failure (unreachable device, remote error, open breaker). With
	// Degradation left at resilience.Default it also DECIDES: returning
	// nil skips the failing tuple (it contributes no output, like an
	// empty invocation result); returning an error aborts the query; and
	// a nil OnInvokeError fails fast — the right default for one-shot
	// queries, while the continuous executor installs a collector so one
	// flaky device cannot kill a standing query. With an explicit
	// Degradation policy the callback is a pure observer (its non-nil
	// return still vetoes/aborts) and the policy decides.
	//
	// For ACTIVE binding patterns the action is recorded before the
	// physical call, so a failed active invocation still appears in the
	// action set: it was attempted, and its physical effect is unknown.
	OnInvokeError func(bp schema.BindingPattern, ref string, input value.Tuple, err error) error

	// Degradation selects what the invocation operator β does with a
	// tuple whose physical invocation failed: resilience.FailFast aborts
	// the query, resilience.SkipTuple drops the tuple (the paper's
	// no-service case), resilience.NullFill keeps it with its virtual
	// attributes realized as NULL. resilience.Default preserves the
	// legacy OnInvokeError contract above.
	Degradation resilience.DegradationPolicy

	// Ctx carries cancellation and deadlines down through
	// Registry.InvokeCtx into the physical invocation (remote round trips
	// included). Nil means context.Background().
	Ctx context.Context

	// Parallelism bounds how many service invocations one invocation
	// operator may run concurrently (Section 5.1: invocations are handled
	// asynchronously; Section 3.2 makes order irrelevant at an instant).
	// Values < 2 mean sequential.
	Parallelism int

	// BatchSize bounds how many invocations the batch planner packs into
	// one registry dispatch (one wire frame for remote services). Zero
	// means DefaultBatchSize when the registry holds at least one
	// batch-capable service (a remote proxy) and per-tuple dispatch
	// otherwise; positive forces the planner on at that chunk size;
	// negative disables batching entirely (ablation and interop escape
	// hatch).
	BatchSize int

	// Span is the enclosing trace span for this evaluation (nil when the
	// evaluation is unsampled — the common case). When set, every β
	// invocation records a per-tuple child span carrying the binding
	// pattern, service reference, input tuple and realized outcome, and
	// the span rides the context.Context down to the registry and across
	// the wire. All span operations are nil-safe, so the unsampled hot
	// path pays one pointer check per tuple.
	Span *trace.Span

	// Stats counts invocations actually reaching services.
	Stats InvokeStats

	// statsMu guards Stats and OnInvokeError calls under parallel
	// invocation.
	statsMu sync.Mutex

	// published remembers how much of Stats has already been flushed to
	// the process-wide obs counters (see PublishObsStats).
	published InvokeStats
}

// InvokeError records one skipped invocation failure.
type InvokeError struct {
	BP    string
	Ref   string
	Input value.Tuple
	Err   error
}

// Error implements error.
func (e InvokeError) Error() string {
	return fmt.Sprintf("invoke %s on %s%s: %v", e.BP, e.Ref, e.Input, e.Err)
}

// InvokeStats counts the physical invocations performed through a context.
// Coalesced counts lookups that joined another worker's in-flight call
// instead of invoking — like Memoized, no physical call happened.
type InvokeStats struct {
	Passive   int64
	Active    int64
	Memoized  int64
	Coalesced int64
}

// NewContext builds a one-shot evaluation context at the given instant.
func NewContext(env Environment, reg *service.Registry, at service.Instant) *Context {
	return &Context{
		Env:      env,
		Registry: reg,
		At:       at,
		Actions:  NewActionSet(),
		Memo:     service.NewMemo(at),
	}
}

// Eval evaluates a plan node at the context's instant. It is the one call
// through which operators evaluate their operands, so with Ops set it
// records each tracked node's OpStats: rows_in is what the node's operands
// returned, rows_out what it returned, wall the time of its subtree, and a
// failure is recorded on the node that raised it and on every ancestor it
// aborts. Recording is not safe for concurrent Eval calls on one context;
// plans are walked sequentially (only the invocations inside β fan out).
func (c *Context) Eval(n Node) (*algebra.XRelation, error) {
	st := c.Ops[n]
	if st == nil {
		return n.Eval(c)
	}
	var in int64
	parentIn := c.opIn
	c.opIn = &in
	start := time.Now()
	r, err := n.Eval(c)
	wall := time.Since(start)
	c.opIn = parentIn
	var out int64
	if err == nil {
		out = int64(r.Len())
	}
	if parentIn != nil {
		*parentIn += out
	}
	st.Record(in, out, wall, err)
	return r, err
}

// Invoke implements algebra.Invoker: it records actions for active binding
// patterns (Definition 8), memoizes passive invocations within the instant
// (Section 3.2 determinism), and delegates the physical call to the
// registry.
func (c *Context) Invoke(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error) {
	return c.InvokeTracked(bp, ref, input, nil)
}

// InvokeTracked is Invoke with a skip indicator: when a physical failure is
// absorbed by the error policy, *skipped (if non-nil) is set and empty rows
// are returned — callers caching results across instants (the continuous
// executor's delta cache) must not remember such results, so the tuple is
// retried at the next instant.
func (c *Context) InvokeTracked(bp schema.BindingPattern, ref string, input value.Tuple, skipped *bool) ([]value.Tuple, error) {
	return c.InvokeObserved(bp, ref, input, skipped, nil)
}

// InvokeObserved is InvokeTracked with one more out-parameter: when the
// physical call fails, *physErr (if non-nil) receives the RAW registry
// error even if the degradation policy then absorbs it. The continuous
// executor needs the distinction for federation (Definition 8): an active
// invocation absorbed after resilience.ErrOutcomeUnknown may have fired on
// the peer, so its tuple must be pinned rather than retried next tick.
func (c *Context) InvokeObserved(bp schema.BindingPattern, ref string, input value.Tuple, skipped *bool, physErr *error) ([]value.Tuple, error) {
	var span *trace.Span
	if c.Span != nil { // sampled evaluation: record this tuple's β span
		span = c.Span.Child(trace.SpanInvoke)
		span.SetAttr("bp", bp.ID())
		span.SetAttr("ref", ref)
		span.SetAttr("in", input.String())
	}
	if bp.Active() {
		c.Actions.Add(Action{BP: bp.ID(), Ref: ref, Input: input.Clone()})
		c.bump(&c.Stats.Active)
		span.SetAttr("mode", "active")
		rows, err := c.Registry.InvokeCtx(trace.ContextWith(c.ctx(), span), bp.Proto.Name, ref, input, c.At)
		if err != nil {
			return c.invokeFailed(bp, ref, input, err, skipped, physErr, span)
		}
		c.finishInvokeSpan(span, rows)
		return rows, nil
	}
	if c.Memo != nil {
		// Coalescing memo path: a hit returns the cached rows, a shared
		// flight waits for the concurrent owner's result (closing the
		// check-then-invoke-then-put window that let two parallel workers
		// both invoke the same key), and an owner performs the one
		// physical call for everyone.
		cached, flight, st := c.Memo.Begin(bp.Proto.Name, ref, input)
		switch st {
		case service.BeginHit:
			c.bump(&c.Stats.Memoized)
			span.SetAttr("mode", "memoized")
			c.finishInvokeSpan(span, cached)
			return cached, nil
		case service.BeginShared:
			rows, err := flight.Wait()
			if err != nil {
				return c.invokeFailed(bp, ref, input, err, skipped, physErr, span)
			}
			c.bump(&c.Stats.Coalesced)
			span.SetAttr("mode", "coalesced")
			c.finishInvokeSpan(span, rows)
			return rows, nil
		}
		span.SetAttr("mode", "passive")
		rows, err := c.Registry.InvokeCtx(trace.ContextWith(c.ctx(), span), bp.Proto.Name, ref, input, c.At)
		flight.Complete(rows, err)
		if err != nil {
			return c.invokeFailed(bp, ref, input, err, skipped, physErr, span)
		}
		c.bump(&c.Stats.Passive)
		c.finishInvokeSpan(span, rows)
		return rows, nil
	}
	span.SetAttr("mode", "passive")
	rows, err := c.Registry.InvokeCtx(trace.ContextWith(c.ctx(), span), bp.Proto.Name, ref, input, c.At)
	if err != nil {
		return c.invokeFailed(bp, ref, input, err, skipped, physErr, span)
	}
	c.bump(&c.Stats.Passive)
	c.finishInvokeSpan(span, rows)
	return rows, nil
}

// finishInvokeSpan stamps a successful β span with its row count.
func (c *Context) finishInvokeSpan(span *trace.Span, rows []value.Tuple) {
	if span == nil {
		return
	}
	span.SetAttrInt("rows", int64(len(rows)))
	span.Finish()
}

// PublishObsStats flushes this context's invocation statistics into the
// process-wide obs counters ("query.invoke.passive" and friends), as
// deltas since the previous flush so repeated calls never double-count.
// EvaluateCtx and the continuous executor call it once per evaluation:
// batching at evaluation granularity keeps the per-invocation hot path
// free of global atomics while the registry stays exact.
func (c *Context) PublishObsStats() {
	c.statsMu.Lock()
	d := InvokeStats{
		Passive:   c.Stats.Passive - c.published.Passive,
		Active:    c.Stats.Active - c.published.Active,
		Memoized:  c.Stats.Memoized - c.published.Memoized,
		Coalesced: c.Stats.Coalesced - c.published.Coalesced,
	}
	c.published = c.Stats
	c.statsMu.Unlock()
	obsQueryPassive.Add(d.Passive)
	obsQueryActive.Add(d.Active)
	obsQueryMemoized.Add(d.Memoized)
	obsQueryCoalesced.Add(d.Coalesced)
}

// ctx returns the evaluation context's context.Context (never nil).
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// MaxParallel implements algebra.ParallelInvoker.
func (c *Context) MaxParallel() int { return c.Parallelism }

// CountActive counts one active invocation without performing it — the
// continuous executor uses it when recovery replays a logged active β from
// its recorded outcome instead of re-firing it (the physical call DID
// happen, before the crash).
func (c *Context) CountActive() { c.bump(&c.Stats.Active) }

func (c *Context) bump(counter *int64) {
	c.statsMu.Lock()
	*counter++
	c.statsMu.Unlock()
}

// invokeFailed applies the degradation policy to one failed invocation.
// The rows it returns stand in for the invocation result: nil rows with
// *skipped set means "drop the tuple"; a single all-NULL row (NullFill)
// realizes the virtual attributes as unknown. Skipped/null-filled results
// must never be cached across instants — the tuple is retried at the next
// one (*skipped signals that to the continuous executor's delta cache).
func (c *Context) invokeFailed(bp schema.BindingPattern, ref string, input value.Tuple, err error, skipped *bool, physErr *error, span *trace.Span) ([]value.Tuple, error) {
	if physErr != nil {
		*physErr = err
	}
	span.SetAttr("error", err.Error())
	defer span.Finish()
	if c.Degradation == resilience.Default {
		// Legacy contract: no collector → fail fast; a collector decides
		// by its return value (nil = skip the tuple).
		if c.OnInvokeError == nil {
			span.SetAttr("degraded", "failfast")
			return nil, err
		}
		c.statsMu.Lock()
		policyErr := c.OnInvokeError(bp, ref, input, err)
		c.statsMu.Unlock()
		if policyErr == nil {
			obsQueryDegraded.Inc()
			span.SetAttr("degraded", "skip")
			if skipped != nil {
				*skipped = true
			}
		} else {
			span.SetAttr("degraded", "abort")
		}
		return nil, policyErr
	}
	// Explicit policy: the collector observes (a non-nil return still
	// vetoes and aborts the query), then the policy decides.
	if c.OnInvokeError != nil {
		c.statsMu.Lock()
		policyErr := c.OnInvokeError(bp, ref, input, err)
		c.statsMu.Unlock()
		if policyErr != nil {
			span.SetAttr("degraded", "abort")
			return nil, policyErr
		}
	}
	switch c.Degradation {
	case resilience.SkipTuple:
		obsQueryDegraded.Inc()
		span.SetAttr("degraded", "skip")
		if skipped != nil {
			*skipped = true
		}
		return nil, nil
	case resilience.NullFill:
		obsQueryDegraded.Inc()
		span.SetAttr("degraded", "nullfill")
		if skipped != nil {
			*skipped = true
		}
		row := make(value.Tuple, bp.Proto.Output.Arity())
		for i := range row {
			row[i] = value.NewNull()
		}
		return []value.Tuple{row}, nil
	default: // resilience.FailFast
		span.SetAttr("degraded", "failfast")
		return nil, err
	}
}
