// Package cq implements continuous query execution over XD-Relations
// (Gripay et al., EDBT 2010, Section 4): a discrete clock drives the
// per-instant evaluation of registered query plans. Operators are applied
// to instantaneous relations; the Window operator W[period] reads the last
// `period` instants of a stream; the Streaming operators S[type] emit
// insertion/deletion/heartbeat deltas; and — following Section 4.2 — the
// invocation operator fires only for tuples newly inserted into its input,
// never again for tuples that persist across instants.
package cq

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/algebra"
	"serena/internal/obs"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/trace"
	"serena/internal/value"
)

// Continuous-execution metrics: tick latency, Section 4.2 invocation-cache
// effectiveness, operator-level delta-path volume, and per-stream instant
// lag (clock instant minus the last instant with events — how stale each
// stream is).
//
// cq.invoke_cache.* is the Section 4.2 cross-instant invocation memo
// (formerly misnamed cq.delta_cache.*, which conflated it with the
// operator-level delta evaluation the cq.delta.* family now covers).
var (
	obsTickLatency        = obs.Default.Histogram("cq.tick.latency")
	obsTicks              = obs.Default.Counter("cq.ticks")
	obsInvokeCacheHits    = obs.Default.Counter("cq.invoke_cache.hits")
	obsInvokeCacheMisses  = obs.Default.Counter("cq.invoke_cache.misses")
	obsQueryEvals         = obs.Default.Counter("cq.query.evals")
	obsQueryEvalTime      = obs.Default.Histogram("cq.query.eval_latency")
	obsDeltaTicks         = obs.Default.Counter("cq.delta.ticks")
	obsDeltaFallbackTicks = obs.Default.Counter("cq.delta.fallback_ticks")
	obsDeltaReinits       = obs.Default.Counter("cq.delta.reinits")
	obsDeltaRowsIn        = obs.Default.Counter("cq.delta.rows_in")
	obsDeltaRowsOut       = obs.Default.Counter("cq.delta.rows_out")
)

// Executor owns a set of dynamic relations and registered continuous
// queries, and advances them over a shared discrete clock.
//
// Locking: tickMu serializes whole ticks (live and replay) and every
// structural mutation that must not interleave with one (Register,
// Unregister, AddRelation, SetDurability, Restore, Snapshot). mu guards the
// executor's fields for brief reads and writes only — readers like Query,
// QueryNames and the metrics pollers take mu alone, so they observe
// consistent state without blocking for a whole tick. Lock order is always
// tickMu before mu, never the reverse.
type Executor struct {
	tickMu  sync.Mutex
	mu      sync.Mutex
	reg     *service.Registry
	rels    map[string]*stream.XDRelation
	queries map[string]*Query
	// producers maps each query's output-relation name (the INTO target
	// when set, the query name otherwise) back to the producing query —
	// the dependency index Unregister, trimming, checkpointing and the
	// producer→consumer delta fast path all consult.
	producers map[string]*Query
	order     []string // query evaluation order (registration order)
	sources   []Source
	now       service.Instant
	// parallelism bounds concurrent invocations per invocation operator.
	parallelism int
	// queryParallelism bounds how many independent queries one tick
	// evaluates concurrently (1 = sequential, the default).
	queryParallelism int
	// batchSize bounds the invocation batch planner's dispatch chunks
	// (0 = query.DefaultBatchSize, negative disables batching).
	batchSize int
	// maxWindow tracks, per stream name, the largest window period any
	// registered query uses — the retention horizon for log trimming.
	maxWindow map[string]service.Instant
	// dur, when set, write-ahead-logs tick boundaries, base-relation events
	// and active-β intents/results (see durable.go).
	dur Durability
	// onCheckpoint persists a state snapshot when dur reports one is due.
	onCheckpoint func(CheckpointState) error
	// Overload protection (see overload.go): tickBudget is the soft tick
	// deadline (0 = none); coalescePassive lets the tick after an overrun
	// skip shedable passive-only queries; overranLast carries the overrun
	// signal from one tick to the next; tickOverruns counts them.
	tickBudget      time.Duration
	coalescePassive bool
	overranLast     bool
	tickOverruns    int64
	// telemetry, when enabled, owns the sys$ system relations and the
	// health scraper source (see telemetry.go).
	telemetry *Telemetry
}

// Source is a data producer pumped at the start of every tick, before
// query evaluation — e.g. a sensor poller or an RSS feed wrapper.
type Source func(at service.Instant) error

// NewExecutor returns an executor starting before instant 0.
func NewExecutor(reg *service.Registry) *Executor {
	return &Executor{
		reg:       reg,
		rels:      make(map[string]*stream.XDRelation),
		queries:   make(map[string]*Query),
		producers: make(map[string]*Query),
		maxWindow: make(map[string]service.Instant),
		now:       -1,
	}
}

// Now returns the last executed instant (−1 before the first tick).
func (e *Executor) Now() service.Instant {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// AddRelation registers a dynamic relation under its schema name.
func (e *Executor) AddRelation(x *stream.XDRelation) error {
	if x.Name() == "" {
		return fmt.Errorf("cq: relation needs a named schema")
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rels[x.Name()]; dup {
		return fmt.Errorf("cq: relation %q already registered", x.Name())
	}
	e.rels[x.Name()] = x
	if e.dur != nil && !x.Ephemeral() {
		e.dur.AttachRelation(x)
	}
	return nil
}

// Relation returns a registered dynamic relation.
func (e *Executor) Relation(name string) (*stream.XDRelation, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	x, ok := e.rels[name]
	return x, ok
}

// Materialized reports whether name is a materialized derived relation —
// the INTO target of a registered query. Its WAL events are informational
// during replay: recovery re-derives the contents by re-evaluating the
// producer, so applying the logged events too would double-apply.
func (e *Executor) Materialized(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	q := e.producers[name]
	return q != nil && q.into != ""
}

// SetParallelism bounds how many service invocations one invocation
// operator may run concurrently (default 1 = sequential; Section 5.1's
// asynchronous invocation handling).
func (e *Executor) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parallelism = n
}

// SetQueryParallelism bounds how many registered queries one tick evaluates
// concurrently (default 1 = sequential). Queries reading another query's
// output relation always run after their producer — see stageQueries — so
// derived views keep their same-instant semantics.
func (e *Executor) SetQueryParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queryParallelism = n
}

// SetBatchSize bounds the invocation batch planner's dispatch chunks: 0
// restores query.DefaultBatchSize, negative disables batching entirely
// (per-tuple invocation, the pre-batching behavior).
func (e *Executor) SetBatchSize(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchSize = n
}

// AddSource registers a producer pumped at each tick before evaluation.
func (e *Executor) AddSource(s Source) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sources = append(e.sources, s)
}

// Query is one registered continuous query with its cross-instant state.
type Query struct {
	name string
	plan query.Node

	// OnResult, when set, is called after each tick with the instantaneous
	// result and its insertion/deletion deltas relative to the previous
	// instant.
	OnResult func(at service.Instant, result *algebra.XRelation, inserted, deleted []value.Tuple)

	infinite   bool // root is a Stream node → result is a stream
	out        *stream.XDRelation
	prevOutput *value.TupleMap[struct{}] // previous instantaneous result

	// into names the materialized output relation (REGISTER QUERY … INTO);
	// "" means the output is registered under the query's own name and is
	// recomputed rather than logged. retain is the INTO relation's RETAIN
	// horizon in instants (0 = engine default for infinite outputs, no
	// trimming for finite ones). Both are set at Register, then read-only.
	into   string
	retain service.Instant

	invCache   map[*query.Invoke]map[string][]value.Tuple
	streamPrev map[*query.Stream]*value.TupleMap[struct{}]

	// Plan nodes with cross-instant state, in DFS preorder. The indexes give
	// invoke and stream nodes a stable identity that survives a restart (the
	// checkpointed plan text re-parses to the same shape), letting WAL
	// records and snapshots address them by position.
	invNodes    []*query.Invoke
	invIdx      map[*query.Invoke]int
	streamNodes []*query.Stream

	// mu guards the accessor-visible state below, so Stats/LastResult/
	// InvokeErrors readers never race the tick writing them (and never
	// block on the tick lock). actions is internally synchronized.
	mu      sync.Mutex
	stats   query.InvokeStats
	actions *query.ActionSet
	lastRes *algebra.XRelation
	invErrs []query.InvokeError
	// invErrTotal counts every invocation failure ever recorded — invErrs
	// is capped at the last 100, so interval deltas (the health state
	// machine's DEGRADED signal) need a monotonic counter.
	invErrTotal int64
	// lastEvalNS is the wall-clock cost of the query's latest evaluation,
	// compared against the tick budget by the health state machine.
	lastEvalNS int64

	// degradation selects the query's β failure policy (guarded by mu;
	// resilience.Default behaves like SkipTuple here).
	degradation resilience.DegradationPolicy

	// hasActive marks plans containing an active β (set at Register, then
	// read-only); such queries are exempt from overload coalescing, as is
	// everything their plan reads. coalesced (guarded by mu) counts the
	// instants this query was skipped under overload.
	hasActive bool
	coalesced int64

	// delta is the compiled incremental-evaluation program (see delta.go),
	// nil when the plan has no delta form (the query then runs naive-only;
	// deltaErr records why). naive, guarded by mu, pins the query to the
	// naive path (SetNaiveEvaluation); deltaTicks/naiveTicks (mu) count
	// instants evaluated by each path.
	delta      *deltaProgram
	deltaErr   string
	naive      bool
	deltaTicks int64
	naiveTicks int64

	// lastDelta (guarded by mu) is the query's most recent per-tick output
	// delta, recorded for finite outputs on both evaluation paths. A
	// downstream consumer's deltaBase reads it through producerDelta,
	// feeding the producer's (inserts, deletes) straight into its gate
	// instead of re-diffing the materialized relation's event log.
	lastDelta queryDelta
}

// queryDelta is one tick's (inserts, deletes) as applied to the query's
// output relation. at identifies the instant it belongs to — a consumer
// must only consume it when the producer evaluated at the same instant.
type queryDelta struct {
	at  service.Instant
	ins []value.Tuple
	del []value.Tuple
}

// Name returns the query's registration name.
func (q *Query) Name() string { return q.name }

// Plan returns the registered plan.
func (q *Query) Plan() query.Node { return q.plan }

// Infinite reports whether the result is an infinite XD-Relation (the root
// operator is a streaming operator, like the paper's Q4).
func (q *Query) Infinite() bool { return q.infinite }

// Output returns the result XD-Relation, fed with the query's deltas.
func (q *Query) Output() *stream.XDRelation { return q.out }

// Into returns the materialized output relation name (REGISTER QUERY …
// INTO), or "" when the output is registered under the query's own name.
func (q *Query) Into() string { return q.into }

// Retain returns the output relation's explicit RETAIN horizon in
// instants (0 = none configured; infinite materialized outputs then fall
// back to DefaultDerivedRetention).
func (q *Query) Retain() service.Instant { return q.retain }

// IsMaterialized reports whether the query materializes its output into a
// named derived relation (INTO): such outputs are WAL-logged and
// checkpointed like base relations instead of being recomputed on replay.
func (q *Query) IsMaterialized() bool { return q.into != "" }

// OutName returns the name the query's output relation is registered
// under: the INTO target when set, the query name otherwise.
func (q *Query) OutName() string {
	if q.into != "" {
		return q.into
	}
	return q.name
}

// Stats returns cumulative invocation statistics.
func (q *Query) Stats() query.InvokeStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Actions returns the cumulative action set (all active invocations fired
// since registration — each distinct action appears once).
func (q *Query) Actions() *query.ActionSet { return q.actions }

// LastResult returns the instantaneous result of the latest tick.
func (q *Query) LastResult() *algebra.XRelation {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lastRes
}

// Degradation returns the query's β failure policy.
func (q *Query) Degradation() resilience.DegradationPolicy {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.degradation
}

// InvokeErrors returns the invocation failures skipped so far (most recent
// last, bounded to the last 100). A flaky device degrades a continuous
// query to partial results instead of killing it; the failures are
// reported here.
func (q *Query) InvokeErrors() []query.InvokeError {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]query.InvokeError, len(q.invErrs))
	copy(out, q.invErrs)
	return out
}

func (q *Query) recordInvokeError(e query.InvokeError) {
	const keep = 100
	q.mu.Lock()
	defer q.mu.Unlock()
	q.invErrTotal++
	q.invErrs = append(q.invErrs, e)
	if len(q.invErrs) > keep {
		q.invErrs = q.invErrs[len(q.invErrs)-keep:]
	}
}

// InvokeErrorTotal returns the total number of invocation failures recorded
// since registration (monotonic, unlike the bounded InvokeErrors buffer).
func (q *Query) InvokeErrorTotal() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.invErrTotal
}

// LastEvalLatency returns the wall-clock duration of the query's most
// recent evaluation (0 before the first tick).
func (q *Query) LastEvalLatency() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return time.Duration(q.lastEvalNS)
}

// schemaEnv adapts the executor's relations to query.Environment for
// schema derivation (empty relations carrying the real schemas).
type schemaEnv struct{ e *Executor }

func (s schemaEnv) Relation(name string) (*algebra.XRelation, error) {
	x, ok := s.e.rels[name]
	if !ok {
		return nil, fmt.Errorf("cq: unknown relation %q", name)
	}
	return algebra.Empty(x.Schema()), nil
}

// DefaultDerivedRetention is the event-log horizon, in instants, applied
// to an infinite derived output relation whose query declares no RETAIN
// clause. Without it a cascaded stream query with no windowed reader would
// grow its event log without bound.
const DefaultDerivedRetention service.Instant = 256

// RegisterOptions carries the optional clauses of REGISTER QUERY.
type RegisterOptions struct {
	// Into materializes the query's output as a named derived XD-Relation
	// ("" = register the output under the query's own name, recomputed on
	// replay rather than WAL-logged).
	Into string
	// Retain bounds the output relation's event log to the last n instants
	// (0 = no explicit policy; infinite INTO outputs then default to
	// DefaultDerivedRetention).
	Retain service.Instant
}

// Register adds a continuous query under a unique name. The plan is
// validated: schemas must derive, and every base reference to an infinite
// XD-Relation must appear directly under a Window operator (an unwindowed
// stream has no finite instantaneous relation).
func (e *Executor) Register(name string, plan query.Node) (*Query, error) {
	return e.RegisterWith(name, plan, RegisterOptions{})
}

// RegisterWith is Register plus the INTO/RETAIN clauses: the output
// relation is registered under opts.Into, WAL-logged and checkpointed like
// a base relation, and trimmed to opts.Retain instants.
func (e *Executor) RegisterWith(name string, plan query.Node, opts RegisterOptions) (*Query, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[name]; dup {
		return nil, fmt.Errorf("cq: query %q already registered", name)
	}
	if isSystemName(name) {
		return nil, fmt.Errorf("cq: query name %q: the sys$ prefix is reserved for system relations", name)
	}
	if opts.Retain < 0 {
		return nil, fmt.Errorf("cq: query %q: negative retention %d", name, opts.Retain)
	}
	outName := name
	if opts.Into != "" {
		// Mirror the Register-side guards for the materialized target: the
		// sys$ namespace stays reserved, and the name must not shadow an
		// existing relation, query, or the query being registered.
		if isSystemName(opts.Into) {
			return nil, fmt.Errorf("cq: query %q: INTO target %q: the sys$ prefix is reserved for system relations", name, opts.Into)
		}
		if opts.Into == name {
			return nil, fmt.Errorf("cq: query %q: INTO target must differ from the query name", name)
		}
		if _, taken := e.rels[opts.Into]; taken {
			return nil, fmt.Errorf("cq: query %q: INTO target %q collides with an existing relation", name, opts.Into)
		}
		if _, taken := e.queries[opts.Into]; taken {
			return nil, fmt.Errorf("cq: query %q: INTO target %q collides with a registered query", name, opts.Into)
		}
		outName = opts.Into
	}
	env := schemaEnv{e}
	outSch, err := plan.ResultSchema(env)
	if err != nil {
		return nil, fmt.Errorf("cq: query %q: %w", name, err)
	}
	if err := e.checkStreamsWindowed(plan, false); err != nil {
		return nil, fmt.Errorf("cq: query %q: %w", name, err)
	}
	_, infinite := plan.(*query.Stream)
	var out *stream.XDRelation
	if infinite {
		out = stream.NewInfinite(outSch.WithName(outName))
	} else {
		out = stream.NewFinite(outSch.WithName(outName))
	}
	if _, taken := e.rels[name]; taken {
		return nil, fmt.Errorf("cq: query name %q collides with a relation", name)
	}
	q := &Query{
		name:       name,
		plan:       plan,
		infinite:   infinite,
		out:        out,
		into:       opts.Into,
		retain:     opts.Retain,
		prevOutput: &value.TupleMap[struct{}]{},
		invCache:   map[*query.Invoke]map[string][]value.Tuple{},
		streamPrev: map[*query.Stream]*value.TupleMap[struct{}]{},
		actions:    query.NewActionSet(),
		lastDelta:  queryDelta{at: -1},
	}
	q.indexPlanNodes()
	e.computeHasActive(q)
	// Compile the incremental-evaluation program (delta.go). A plan some
	// delta operator cannot cover falls back to the naive evaluator — the
	// query still runs, just re-evaluating per tick.
	if p, derr := compileDelta(e, q); derr == nil {
		q.delta = p
	} else {
		q.deltaErr = derr.Error()
		slog.Info("cq: query runs naive (no delta form)", "query", name, "reason", derr.Error())
	}
	e.queries[name] = q
	e.order = append(e.order, name)
	e.recordWindows(plan)
	// The output XD-Relation is itself part of the environment: queries
	// registered later may read it by name (derived relations / continuous
	// views). Within one tick, queries evaluate in registration order, so a
	// downstream consumer sees the producer's output for the same instant.
	e.rels[outName] = out
	e.producers[outName] = q
	// A materialized output is durable like a base relation: its events
	// flow to the WAL so dump→replay→recovery rebuilds it even though
	// replay re-derives the contents by re-evaluating the producer (see
	// pems.applyRecoveredEvent, which skips the logged events in favor of
	// the re-evaluation to avoid double-apply).
	if opts.Into != "" && e.dur != nil && !out.Ephemeral() {
		e.dur.AttachRelation(out)
	}
	return q, nil
}

// indexPlanNodes assigns every invoke and stream node its DFS-preorder
// index (durable node identity for WAL records and checkpoints).
func (q *Query) indexPlanNodes() {
	q.invIdx = map[*query.Invoke]int{}
	var walk func(n query.Node)
	walk = func(n query.Node) {
		switch t := n.(type) {
		case *query.Invoke:
			q.invIdx[t] = len(q.invNodes)
			q.invNodes = append(q.invNodes, t)
		case *query.Stream:
			q.streamNodes = append(q.streamNodes, t)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(q.plan)
}

// SetDegradation selects a registered query's β failure policy:
// resilience.FailFast aborts the tick on the first invocation failure
// (today's one-shot behavior), resilience.SkipTuple drops the failing
// tuple (the default for continuous queries — the paper's no-service
// case), resilience.NullFill keeps the tuple with its virtual attributes
// realized as NULL. Failed tuples are never cached: they are retried at
// the next instant under every policy.
func (e *Executor) SetDegradation(name string, p resilience.DegradationPolicy) error {
	e.mu.Lock()
	q, ok := e.queries[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("cq: unknown query %q", name)
	}
	q.mu.Lock()
	q.degradation = p
	q.mu.Unlock()
	return nil
}

// Query returns a registered continuous query by name.
func (e *Executor) Query(name string) (*Query, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	return q, ok
}

// QueryNames lists the registered continuous queries in registration order.
func (e *Executor) QueryNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.order...)
}

// RelationNames lists every relation the executor knows about (catalog
// tables, streams, and derived continuous-query outputs), sorted.
func (e *Executor) RelationNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.rels))
	for name := range e.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Unregister stops and removes a continuous query along with its derived
// output relation. It refuses to remove a producer whose output relation a
// still-registered query reads — silently dropping it would leave every
// consumer evaluating against a dangling base. Unregister the consumers
// first.
func (e *Executor) Unregister(name string) error {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[name]
	if !ok {
		return fmt.Errorf("cq: unknown query %q", name)
	}
	out := q.OutName()
	var consumers []string
	for _, other := range e.order {
		if other == name {
			continue
		}
		for _, dep := range planBaseNames(e.queries[other].plan) {
			if dep == out {
				consumers = append(consumers, other)
				break
			}
		}
	}
	if len(consumers) > 0 {
		return fmt.Errorf("cq: cannot unregister query %q: its derived relation %q is read by registered queries [%s] — unregister those first",
			name, out, strings.Join(consumers, ", "))
	}
	delete(e.queries, name)
	delete(e.rels, out) // drop the derived output relation
	delete(e.producers, out)
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	return nil
}

// recordWindows updates the per-stream retention horizon from a plan's
// window operators (never shrinks: unregistered queries keep their horizon
// to stay conservative).
func (e *Executor) recordWindows(n query.Node) {
	if w, ok := n.(*query.Window); ok {
		if base, ok := w.Child.(*query.Base); ok {
			p := service.Instant(w.Period)
			if p > e.maxWindow[base.Name] {
				e.maxWindow[base.Name] = p
			}
		}
	}
	for _, c := range n.Children() {
		e.recordWindows(c)
	}
}

// trimStreams drops stream events that no registered window can reach any
// more, bounding memory for long-running executions. A stream keeps no
// other state, so the trimmed log is all it holds, checkpoints and its
// one-shot view (Current) included. Events are kept for one extra instant
// of slack. Per-relation RETAIN policies add a second horizon: an
// explicit RETAIN trims the relation (finite or infinite) to its last n
// instants, and an infinite derived output with no policy
// falls back to DefaultDerivedRetention so a cascaded stream query
// holds bounded memory even with no windowed reader. When both a window
// and a retention apply, the more conservative (least-trimming) horizon
// wins, so RETAIN never starves a registered window. Base relations
// without any windowed reader or retention are never trimmed automatically
// (their full history may still be inspected via Current or At).
func (e *Executor) trimStreams(at service.Instant) {
	for name, x := range e.rels {
		var retain service.Instant
		if q := e.producers[name]; q != nil {
			retain = q.retain
			if retain == 0 && x.Infinite() {
				retain = DefaultDerivedRetention
			}
		}
		period, windowed := e.maxWindow[name]
		windowed = windowed && x.Infinite() // finite windows read Current, not the log
		var horizon service.Instant
		switch {
		case windowed && retain > 0:
			horizon = min(at-period-1, at-retain+1)
		case windowed:
			horizon = at - period - 1
		case retain > 0:
			horizon = at - retain + 1
		default:
			continue
		}
		if horizon > 0 {
			x.TrimBefore(horizon)
		}
	}
}

// checkStreamsWindowed walks the plan ensuring infinite base relations are
// directly wrapped by a Window operator.
func (e *Executor) checkStreamsWindowed(n query.Node, directlyUnderWindow bool) error {
	switch t := n.(type) {
	case *query.Base:
		x, ok := e.rels[t.Name]
		if !ok {
			return fmt.Errorf("unknown relation %q", t.Name)
		}
		if x.Infinite() && !directlyUnderWindow {
			return fmt.Errorf("stream %q must be accessed through a window operator (Section 4.2)", t.Name)
		}
		return nil
	case *query.Window:
		if _, ok := t.Child.(*query.Base); !ok {
			return fmt.Errorf("window operator applies to base streams, not %T", t.Child)
		}
		return e.checkStreamsWindowed(t.Child, true)
	}
	for _, c := range n.Children() {
		if err := e.checkStreamsWindowed(c, false); err != nil {
			return err
		}
	}
	return nil
}

// Tick advances the clock one instant: it pumps every source, then
// evaluates every registered query at the new instant, updating outputs and
// firing OnResult callbacks. It returns the instant just executed.
//
// Only tickMu is held across the tick; e.mu is taken briefly around field
// access, so Query/QueryNames/Relation readers and the metrics pollers
// never wait a whole tick out. WAL BeginTick/CommitTick still bracket
// everything the tick does, and queries evaluate in dependency stages (see
// evalTickQueries) so derived views keep reading their producer's
// same-instant output.
func (e *Executor) Tick() (service.Instant, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	start := time.Now()
	e.mu.Lock()
	e.now++
	at := e.now
	order := append([]string(nil), e.order...)
	qs := make([]*Query, len(order))
	for i, name := range order {
		qs[i] = e.queries[name]
	}
	sources := append([]Source(nil), e.sources...)
	dur := e.dur
	onCheckpoint := e.onCheckpoint
	workers := e.queryParallelism
	budget := e.tickBudget
	skipPassive := e.coalescePassive && e.overranLast
	rels := make([]*stream.XDRelation, 0, len(e.rels))
	for _, x := range e.rels {
		rels = append(rels, x)
	}
	e.mu.Unlock()
	// The head-sampling decision for the whole tick: a sampled tick gets a
	// root span; everything below (query evals, operators, β tuples, wire
	// round trips) records as its descendants. An unsampled tick threads a
	// nil span and every instrumentation site below degrades to a nil check.
	tick := trace.Default.StartRoot("cq.tick")
	tick.SetAttrInt("instant", int64(at))
	defer tick.Finish()
	if dur != nil {
		if err := dur.BeginTick(at); err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: wal begin at instant %d: %w", at, err)
		}
	}
	// Ingest buffers drain inside the WAL window (after BeginTick), so
	// drained events are durably attributed to this tick.
	if err := e.drainIngest(rels, at); err != nil {
		tick.SetAttr("error", err.Error())
		e.logTickError(tick, at, "", err)
		return at, fmt.Errorf("cq: ingest drain at instant %d: %w", at, err)
	}
	for _, src := range sources {
		if err := src(at); err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: source at instant %d: %w", at, err)
		}
	}
	if err := e.evalTickQueries(order, qs, at, tick, nil, workers, skipPassive); err != nil {
		return at, err
	}
	e.mu.Lock()
	e.trimStreams(at)
	e.mu.Unlock()
	if dur != nil {
		due, err := dur.CommitTick(at)
		if err != nil {
			tick.SetAttr("error", err.Error())
			e.logTickError(tick, at, "", err)
			return at, fmt.Errorf("cq: wal commit at instant %d: %w", at, err)
		}
		if due && onCheckpoint != nil {
			e.mu.Lock()
			st := e.snapshotLocked()
			e.mu.Unlock()
			if err := onCheckpoint(st); err != nil {
				// Non-fatal: the log still covers everything; retried at the
				// next due tick.
				slog.Warn("cq: checkpoint failed", "instant", int64(at), "err", err.Error())
			}
		}
	}
	elapsed := time.Since(start)
	e.mu.Lock()
	e.recordLag(at)
	overran := budget > 0 && elapsed > budget
	e.overranLast = overran
	if overran {
		e.tickOverruns++
	}
	e.mu.Unlock()
	if overran {
		obsTickOverruns.Inc()
		tick.SetAttr("overrun", "true")
	}
	obsLastTickElapsed.Set(int64(elapsed))
	obsTicks.Inc()
	obsTickLatency.Observe(elapsed)
	return at, nil
}

// evalTickQueries evaluates one tick's queries in dependency stages. A
// query reading another registered query's output relation (a derived
// view) must evaluate after its producer to see the producer's
// same-instant output; registration order is topological (Register only
// accepts plans whose relations already exist), so one pass over the
// queries assigns each its stage. Within a stage, queries are independent
// and evaluate concurrently on a bounded pool when workers > 1. Errors are
// deterministic: the failing query earliest in registration order wins.
//
// skipPassive is the overload-coalescing signal: when set (only ever on a
// live tick following a budget overrun — replay never coalesces), queries
// that shedableQueries proves safe are skipped for this instant. A skipped
// query's cross-instant state is untouched, so its next evaluation emits
// the accumulated delta.
func (e *Executor) evalTickQueries(order []string, qs []*Query, at service.Instant, tick *trace.Span, replay ReplayLedger, workers int, skipPassive bool) error {
	fail := func(i int, err error) error {
		tick.SetAttr("error", err.Error())
		e.logTickError(tick, at, order[i], err)
		return fmt.Errorf("cq: query %q at instant %d: %w", order[i], at, err)
	}
	var skip []bool
	if skipPassive {
		skip = shedableQueries(order, qs)
	}
	skipped := func(i int) bool {
		if skip != nil && skip[i] {
			qs[i].noteCoalesced()
			return true
		}
		return false
	}
	if workers < 2 || len(qs) < 2 {
		for i, q := range qs {
			if skipped(i) {
				continue
			}
			if err := e.evalQuery(q, at, tick, replay); err != nil {
				return fail(i, err)
			}
		}
		return nil
	}
	for _, stage := range stageQueries(order, qs) {
		w := workers
		if w > len(stage) {
			w = len(stage)
		}
		if w < 2 {
			for _, i := range stage {
				if skipped(i) {
					continue
				}
				if err := e.evalQuery(qs[i], at, tick, replay); err != nil {
					return fail(i, err)
				}
			}
			continue
		}
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			errIdx   = -1
			firstErr error
		)
		next := make(chan int)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if err := e.evalQuery(qs[i], at, tick, replay); err != nil {
						errMu.Lock()
						if errIdx == -1 || i < errIdx {
							errIdx, firstErr = i, err
						}
						errMu.Unlock()
					}
				}
			}()
		}
		for _, i := range stage {
			if skipped(i) {
				continue
			}
			next <- i
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return fail(errIdx, firstErr)
		}
	}
	return nil
}

// stageQueries groups query indexes into evaluation stages by derived-view
// dependency depth: stage 0 reads only base relations, stage k reads at
// least one stage k−1 output. The dependency index is keyed by each
// query's OUTPUT relation name (the INTO target when set) — a consumer
// reads its producer through that name, not through the producer's query
// name. Dependencies always point at earlier registrations, so depths
// resolve in one forward pass.
func stageQueries(order []string, qs []*Query) [][]int {
	idxOf := make(map[string]int, len(qs))
	for i, q := range qs {
		idxOf[q.OutName()] = i
	}
	depth := make([]int, len(qs))
	maxDepth := 0
	for i, q := range qs {
		d := 0
		for _, dep := range planBaseNames(q.plan) {
			if j, ok := idxOf[dep]; ok && j < i && depth[j]+1 > d {
				d = depth[j] + 1
			}
		}
		depth[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	stages := make([][]int, maxDepth+1)
	for i, d := range depth {
		stages[d] = append(stages[d], i)
	}
	return stages
}

// planBaseNames collects every base-relation name a plan reads.
func planBaseNames(n query.Node) []string {
	var out []string
	var walk func(query.Node)
	walk = func(n query.Node) {
		if b, ok := n.(*query.Base); ok {
			out = append(out, b.Name)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// logTickError emits a structured log line for a failed tick, correlated
// with the tick's span when the tick is sampled (trace_id/span_id attrs let
// the operator jump from the log line to /debug/trace).
func (e *Executor) logTickError(tick *trace.Span, at service.Instant, queryName string, err error) {
	attrs := append(tick.LogAttrs(),
		slog.Int64("instant", int64(at)),
		slog.String("err", err.Error()))
	if queryName != "" {
		attrs = append(attrs, slog.String("query", queryName))
	}
	slog.LogAttrs(context.Background(), slog.LevelError, "cq: tick failed", attrs...)
}

// LagNeverProduced is the cq.stream.lag gauge sentinel for a stream that
// has never produced an event. A distinct negative value — rather than the
// old `at+1` encoding, which after enough ticks is indistinguishable from a
// genuinely lagging stream — so dashboards and the health state machine can
// tell "silent since birth" from "went silent".
const LagNeverProduced int64 = -1

// recordLag publishes, per infinite XD-Relation, how many instants behind
// the clock its newest event is (0 = produced this instant,
// LagNeverProduced = never produced anything).
func (e *Executor) recordLag(at service.Instant) {
	for name, x := range e.rels {
		if !x.Infinite() {
			continue
		}
		last := x.LastInstant()
		lag := int64(at - last)
		if last < 0 {
			lag = LagNeverProduced
		}
		obs.Default.Gauge(obs.Key("cq.stream.lag", name)).Set(lag)
	}
}

// RunUntil ticks until (and including) the given instant.
func (e *Executor) RunUntil(at service.Instant) error {
	for e.Now() < at {
		if _, err := e.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// evalQuery evaluates one query at one instant (tickMu held by the caller;
// e.mu is NOT held — parallel stages run several evalQuery calls at once).
// tick is the enclosing tick span (nil when the tick is unsampled). replay,
// non-nil during recovery, carries the tick's logged active-invocation
// outcomes; live ticks pass nil.
func (e *Executor) evalQuery(q *Query, at service.Instant, tick *trace.Span, replay ReplayLedger) error {
	ctx := query.NewContext(schemaEnv{e}, e.reg, at)
	e.mu.Lock()
	ctx.Parallelism = e.parallelism
	ctx.BatchSize = e.batchSize
	e.mu.Unlock()
	qspan := tick.Child("cq.query")
	qspan.SetAttr("query", q.name)
	ctx.Span = qspan
	ev := &evaluator{exec: e, q: q, ctx: ctx, at: at, replay: replay}
	// The query's degradation policy decides what β does with a failing
	// device; continuous queries default to SkipTuple so one flaky sensor
	// degrades a standing query to partial results instead of killing it.
	// Every failure is recorded on the query either way.
	q.mu.Lock()
	ctx.Degradation = q.degradation
	q.mu.Unlock()
	if ctx.Degradation == resilience.Default {
		ctx.Degradation = resilience.SkipTuple
	}
	ctx.OnInvokeError = func(bp schema.BindingPattern, ref string, input value.Tuple, err error) error {
		q.recordInvokeError(query.InvokeError{BP: bp.ID(), Ref: ref, Input: input.Clone(), Err: err})
		return nil
	}
	// Evaluator selection: the compiled delta program unless the query is
	// pinned naive (or never compiled). Both paths produce the same
	// (result, cur, inserted, deleted) quadruple — the differential test
	// harness holds them to bit-identical results and action sets.
	q.mu.Lock()
	useDelta := q.delta != nil && !q.naive
	q.mu.Unlock()
	qspan.SetAttr("evaluator", map[bool]string{true: "delta", false: "naive"}[useDelta])

	evalStart := time.Now()
	var (
		res               *algebra.XRelation
		cur               *value.TupleMap[struct{}]
		inserted, deleted []value.Tuple
		err               error
	)
	if useDelta {
		res, cur, inserted, deleted, err = ev.evalDelta()
	} else {
		res, err = ev.eval(q.plan)
	}
	evalElapsed := time.Since(evalStart)
	ctx.PublishObsStats()
	obsQueryEvals.Inc()
	obsQueryEvalTime.Observe(evalElapsed)
	obs.Default.Gauge(obs.Key("cq.query.eval_ns", q.name)).Set(int64(evalElapsed))
	if err != nil {
		qspan.SetAttr("error", err.Error())
		qspan.Finish()
		return err
	}
	if useDelta {
		obsDeltaTicks.Inc()
	} else if q.delta != nil {
		obsDeltaFallbackTicks.Inc()
	}
	qspan.SetAttrInt("rows", int64(res.Len()))
	qspan.Finish()
	q.mu.Lock()
	q.lastRes = res
	q.lastEvalNS = int64(evalElapsed)
	q.stats.Active += ctx.Stats.Active
	q.stats.Passive += ctx.Stats.Passive
	q.stats.Memoized += ctx.Stats.Memoized
	q.stats.Coalesced += ctx.Stats.Coalesced
	if useDelta {
		q.deltaTicks++
	} else {
		q.naiveTicks++
	}
	q.mu.Unlock()
	for _, a := range ctx.Actions.Sorted() {
		q.actions.Add(a)
	}

	if !useDelta {
		// Delta the instantaneous result against the previous instant (the
		// incremental path derived all four pieces directly from the root
		// operator's delta).
		cur = tupleSet(res.Tuples())
		inserted, deleted = missing(cur, q.prevOutput), missing(q.prevOutput, cur)
	}
	value.SortTuples(inserted)
	value.SortTuples(deleted)
	if !q.infinite {
		// Publish this tick's output delta for downstream consumers: the
		// slices below are exactly what is applied to q.out, so a consumer's
		// deltaBase can ingest them directly (producerDelta) instead of
		// re-reading the relation's event log. Recorded on both evaluation
		// paths — a naive-pinned producer still feeds delta consumers.
		q.mu.Lock()
		q.lastDelta = queryDelta{at: at, ins: inserted, del: deleted}
		q.mu.Unlock()
	}
	if q.infinite {
		// Stream result: the instantaneous relation already IS the emitted
		// delta (the root streaming operator computed it); append each
		// emitted tuple.
		for _, t := range res.Sorted() {
			if err := q.out.Insert(at, t); err != nil {
				return err
			}
		}
	} else {
		for _, t := range inserted {
			if err := q.out.Insert(at, t); err != nil {
				return err
			}
		}
		for _, t := range deleted {
			if err := q.out.Delete(at, t); err != nil {
				return err
			}
		}
	}
	q.prevOutput = cur
	if q.OnResult != nil {
		q.OnResult(at, res, inserted, deleted)
	}
	return nil
}

// streamEmit returns what S[kind] emits at an instant, given its child's
// set now (cur) and at the previous instant (prev): the tuples that
// entered, the tuples that left, or (heartbeat) all of cur.
func streamEmit(kind query.StreamKind, cur, prev *value.TupleMap[struct{}]) []value.Tuple {
	switch kind {
	case query.StreamInsertion:
		return missing(cur, prev)
	case query.StreamDeletion:
		return missing(prev, cur)
	}
	return append([]value.Tuple(nil), cur.Keys()...)
}

// tupleSet returns the set of the given tuples.
func tupleSet(ts []value.Tuple) *value.TupleMap[struct{}] {
	s := value.NewTupleMap[struct{}](len(ts))
	for _, t := range ts {
		s.Put(t, struct{}{})
	}
	return s
}

// missing returns the tuples of a that b lacks: with a the current set
// and b the previous one, the inserted tuples, and the other way round the
// deleted ones. A nil set is empty.
func missing(a, b *value.TupleMap[struct{}]) []value.Tuple {
	var out []value.Tuple
	for _, t := range a.Keys() {
		if !b.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// producerDelta returns the (inserts, deletes) another query applied to
// its finite output relation this tick — the cascade fast path a
// consumer's deltaBase takes instead of re-diffing the event log. It is
// only valid for a steady consecutive-tick step (from == at−1) when the
// producer itself evaluated at the same instant; any other shape (re-init,
// clock gap, producer coalesced under overload this instant) reports
// ok=false and the consumer falls back to the event log.
func (e *Executor) producerDelta(name string, from, at service.Instant) (ins, del []value.Tuple, ok bool) {
	if from != at-1 {
		return nil, nil, false
	}
	e.mu.Lock()
	q := e.producers[name]
	e.mu.Unlock()
	if q == nil || q.infinite {
		return nil, nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lastDelta.at != at {
		return nil, nil, false
	}
	return q.lastDelta.ins, q.lastDelta.del, true
}

// evaluator computes instantaneous relations for one (query, instant).
type evaluator struct {
	exec *Executor
	q    *Query
	ctx  *query.Context
	at   service.Instant
	// replay is non-nil during recovery: the logged outcomes of this tick's
	// active invocations, consulted instead of re-firing them.
	replay ReplayLedger
}

// eval dispatches on node type. Window, Stream and Invoke get time-aware
// semantics; everything else mirrors one-shot evaluation over the
// instantaneous operand relations.
func (ev *evaluator) eval(n query.Node) (*algebra.XRelation, error) {
	switch t := n.(type) {
	case *query.Base:
		x, ok := ev.exec.rels[t.Name]
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", t.Name)
		}
		if x.Infinite() {
			return nil, fmt.Errorf("stream %q used without a window", t.Name)
		}
		return algebra.New(x.Schema(), x.At(ev.at))

	case *query.Window:
		base := t.Child.(*query.Base) // validated at registration
		x, ok := ev.exec.rels[base.Name]
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", base.Name)
		}
		span := ev.ctx.Span.Child("cq.window")
		span.SetAttr("stream", base.Name)
		span.SetAttrInt("period", int64(t.Period))
		tuples := x.InsertedIn(ev.at-service.Instant(t.Period), ev.at)
		span.SetAttrInt("rows", int64(len(tuples)))
		span.Finish()
		return algebra.New(x.Schema(), tuples)

	case *query.Stream:
		child, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		cur := tupleSet(child.Tuples())
		emit := streamEmit(t.Kind, cur, ev.q.streamPrev[t])
		ev.q.streamPrev[t] = cur
		value.SortTuples(emit)
		if span := ev.ctx.Span.Child("cq.stream"); span != nil {
			span.SetAttr("kind", t.Kind.String())
			span.SetAttrInt("emitted", int64(len(emit)))
			span.Finish()
		}
		return algebra.New(child.Schema(), emit)

	case *query.Invoke:
		child, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return ev.evalInvokeDelta(t, child)

	case *query.Aggregate:
		c, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return algebra.Aggregate(c, t.GroupBy, t.Aggs)

	case *query.Project:
		c, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return algebra.Project(c, t.Attrs)

	case *query.Select:
		c, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return algebra.Select(c, t.Formula)

	case *query.Rename:
		c, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return algebra.Rename(c, t.Old, t.New)

	case *query.Assign:
		c, err := ev.eval(t.Child)
		if err != nil {
			return nil, err
		}
		if t.Src != "" {
			return algebra.AssignAttr(c, t.Attr, t.Src)
		}
		return algebra.AssignConst(c, t.Attr, t.Const)

	case *query.Join:
		l, err := ev.eval(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(t.Right)
		if err != nil {
			return nil, err
		}
		return algebra.NaturalJoin(l, r)

	case *query.SetOp:
		l, err := ev.eval(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(t.Right)
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case query.UnionOp:
			return algebra.Union(l, r)
		case query.IntersectOp:
			return algebra.Intersect(l, r)
		case query.DiffOp:
			return algebra.Diff(l, r)
		}
	}
	return nil, fmt.Errorf("cq: unsupported node %T", n)
}

// evalInvokeDelta implements the Section 4.2 invocation semantics: only
// tuples newly inserted into the operand trigger invocations; persisting
// tuples reuse the outputs computed when they first appeared. The cache is
// keyed by input-tuple identity and pruned to the current operand.
func (ev *evaluator) evalInvokeDelta(node *query.Invoke, child *algebra.XRelation) (*algebra.XRelation, error) {
	bp, err := child.Schema().FindBP(node.Proto, node.ServiceAttr)
	if err != nil {
		return nil, err
	}
	cache := ev.q.invCache[node] // only read: nil before the first tick
	next := make(map[string][]value.Tuple, child.Len())

	// We reuse algebra.Invoke but intercept per-tuple invocations with a
	// caching Invoker. The cache key is (bp, ref, input): the realized
	// outputs depend only on that triple, and a persisting operand tuple
	// produces the same triple at every instant, so it is never re-invoked.
	cachingInvoker := &deltaInvoker{ev: ev, node: node, cache: cache, next: next}

	// On a sampled tick, wrap the operator in a "cq.invoke" span and make
	// it the parent of the per-tuple β spans for the duration of the call
	// (evaluation walks the plan sequentially, so swapping ctx.Span is
	// safe; parallel per-tuple invocations only read it).
	opSpan := ev.ctx.Span.Child("cq.invoke")
	if opSpan != nil {
		opSpan.SetAttr("bp", bp.ID())
		saved := ev.ctx.Span
		ev.ctx.Span = opSpan
		defer func() { ev.ctx.Span = saved }()
	}
	out, err := algebra.Invoke(child, bp, cachingInvoker)
	if opSpan != nil {
		opSpan.SetAttrInt("cache_hits", cachingInvoker.hits.Load())
		opSpan.SetAttrInt("cache_misses", cachingInvoker.misses.Load())
		if err != nil {
			opSpan.SetAttr("error", err.Error())
		}
		opSpan.Finish()
	}
	if err != nil {
		return nil, err
	}
	ev.q.invCache[node] = next
	return out, nil
}

// deltaInvoker caches invocation results across instants keyed by
// (bp, ref, input). Hits count neither as physical invocations nor as
// actions — a persisting tuple triggers no new action (Section 4.2).
type deltaInvoker struct {
	ev    *evaluator
	node  *query.Invoke
	mu    sync.Mutex
	cache map[string][]value.Tuple // previous instant
	next  map[string][]value.Tuple // being built for this instant
	// Per-operator-call cache effectiveness, reported as attributes on the
	// sampled "cq.invoke" operator span (atomics: tuples may invoke in
	// parallel).
	hits   atomic.Int64
	misses atomic.Int64
}

// MaxParallel implements algebra.ParallelInvoker (from the evaluation
// context, snapshotted at the start of the tick).
func (d *deltaInvoker) MaxParallel() int { return d.ev.ctx.Parallelism }

// MaxBatch implements algebra.BatchInvoker (from the evaluation context).
func (d *deltaInvoker) MaxBatch() int { return d.ev.ctx.MaxBatch() }

// InvokeBatch implements algebra.BatchInvoker for passive β fan-out: jobs
// answered by the cross-instant delta cache resolve locally, the misses go
// through the context's batch planner in one pass (dedup, coalescing,
// grouped wire frames), and fresh successful results enter this instant's
// cache exactly as the per-tuple path would. Active patterns never come
// here — the algebra keeps them on the per-tuple path, where the
// effectful-once WAL protocol lives.
func (d *deltaInvoker) InvokeBatch(bp schema.BindingPattern, refs []string, inputs []value.Tuple) []algebra.BatchResult {
	out := make([]algebra.BatchResult, len(refs))
	keys := make([]string, len(refs))
	missIdx := make([]int, 0, len(refs))
	d.mu.Lock()
	for i := range refs {
		keys[i] = query.ActionKey(bp.ID(), refs[i], inputs[i])
		if rows, ok := d.cachedLocked(keys[i]); ok {
			out[i].Rows = rows
			continue
		}
		missIdx = append(missIdx, i)
	}
	d.mu.Unlock()
	if len(missIdx) == 0 {
		return out
	}
	obsInvokeCacheMisses.Add(int64(len(missIdx)))
	d.misses.Add(int64(len(missIdx)))
	missRefs := make([]string, len(missIdx))
	missInputs := make([]value.Tuple, len(missIdx))
	for j, i := range missIdx {
		missRefs[j], missInputs[j] = refs[i], inputs[i]
	}
	skipped := make([]bool, len(missIdx))
	brs := d.ev.ctx.InvokeBatchTracked(bp, missRefs, missInputs, skipped)
	d.mu.Lock()
	for j, i := range missIdx {
		out[i] = brs[j]
		// Absorbed failures (skipped) pass their stand-in rows through
		// WITHOUT being cached, so the tuple retries next instant.
		if brs[j].Err == nil && !skipped[j] {
			d.next[keys[i]] = brs[j].Rows
		}
	}
	d.mu.Unlock()
	return out
}

// cachedLocked looks key up in the previous instant's cache, carrying a
// hit forward into this instant's, then in this instant's, and counts a
// hit. Callers hold d.mu.
func (d *deltaInvoker) cachedLocked(key string) ([]value.Tuple, bool) {
	rows, ok := d.cache[key]
	if ok {
		d.next[key] = rows
	} else if rows, ok = d.next[key]; !ok {
		return nil, false
	}
	d.hits.Add(1)
	obsInvokeCacheHits.Inc()
	return rows, true
}

// Invoke implements algebra.Invoker. It is safe for concurrent use.
func (d *deltaInvoker) Invoke(bp schema.BindingPattern, ref string, input value.Tuple) ([]value.Tuple, error) {
	key := query.ActionKey(bp.ID(), ref, input)
	d.mu.Lock()
	rows, ok := d.cachedLocked(key)
	d.mu.Unlock()
	if ok {
		return rows, nil
	}
	obsInvokeCacheMisses.Inc()
	d.misses.Add(1)

	rows, cacheable, err := d.ev.invokePhysical(d.node, bp, ref, input)
	if err != nil {
		return nil, err
	}
	if cacheable {
		d.mu.Lock()
		d.next[key] = rows
		d.mu.Unlock()
	}
	return rows, nil
}

// invokePhysical is the cache-independent core of one β invocation,
// shared by the naive deltaInvoker and the incremental deltaInvoke
// operator: replay-ledger consultation for active patterns, the
// effectful-once WAL bracket, the tracked call itself, and the degradation
// policy's absorbed-failure handling. cacheable reports whether the rows
// may enter the cross-instant invocation cache (false for absorbed
// failures and unknown replay outcomes — those retry next instant).
func (ev *evaluator) invokePhysical(node *query.Invoke, bp schema.BindingPattern, ref string, input value.Tuple) (rows []value.Tuple, cacheable bool, err error) {
	if bp.Active() && ev.replay != nil {
		if ent, ok := ev.replay[query.ActionKey(bp.ID(), ref, input)]; ok {
			// The action fired (or at least durably intended to) before the
			// crash: it joins the action set and counts as physical, but is
			// NEVER re-fired (Definition 8 — recovery must not duplicate
			// actions on the environment).
			ev.ctx.Actions.Add(query.Action{BP: bp.ID(), Ref: ref, Input: input.Clone()})
			ev.ctx.CountActive()
			if ent.Completed && ent.OK {
				return ent.Rows, true, nil
			}
			// Failed or unknown outcome: behave like an absorbed failure —
			// contribute no rows and stay uncached, so the live retry at the
			// next instant (itself in the log) replays identically.
			return nil, false, nil
		}
		// No ledger entry means the intent never became durable, so the call
		// never fired live; fall through and fire it for real.
	}

	logActive := bp.Active() && ev.replay == nil && ev.exec.dur != nil
	var nodeIdx int
	if logActive {
		nodeIdx = ev.q.invIdx[node]
		// Effectful-once: the intent must be durable BEFORE the physical
		// call. If it cannot be persisted, firing would risk an invisible
		// duplicate after a crash — abort the invocation instead.
		if err := ev.exec.dur.ActiveIntent(ev.q.name, nodeIdx, bp.ID(), ref, input, ev.at); err != nil {
			return nil, false, fmt.Errorf("durable intent for %s on %s: %w", bp.ID(), ref, err)
		}
	}
	skipped := new(bool)
	var physErr error
	rows, err = ev.ctx.InvokeObserved(bp, ref, input, skipped, &physErr)
	// Federation (Definition 8): an active request whose outcome is unknown
	// — sent to a peer, answer lost — may have fired. It must never be
	// re-sent (the transport already refused to), never re-fired at a
	// replica, and never retried at the next instant.
	outcomeUnknown := bp.Active() && physErr != nil && errors.Is(physErr, resilience.ErrOutcomeUnknown)
	if logActive && !outcomeUnknown {
		ok := err == nil && !*skipped
		var res []value.Tuple
		if ok {
			res = rows
		}
		// A failed completion append degrades this call to an orphan intent
		// on recovery — the safe direction (attempted, never re-fired).
		_ = ev.exec.dur.ActiveResult(ev.q.name, nodeIdx, bp.ID(), ref, input, ev.at, ok, res)
	}
	// outcomeUnknown intentionally skips ActiveResult: the intent stays an
	// ORPHAN in the WAL, so recovery replays it as attempted-never-refire
	// (SeedActive pins it) — the durable form of the live pin below.
	if err != nil {
		return nil, false, err
	}
	if outcomeUnknown {
		// Live pin: cache the stand-in rows (nothing for SkipTuple, an
		// all-NULL fill for NullFill) so the persisting tuple does NOT
		// re-invoke next instant. This is the one absorbed failure that must
		// not retry — a retry could duplicate the action on the environment.
		return rows, true, nil
	}
	// A skipped invocation was absorbed by the degradation policy: its
	// stand-in rows pass through (nothing for SkipTuple, an all-NULL fill
	// for NullFill) WITHOUT being cacheable, so the tuple is retried at
	// the next instant.
	return rows, !*skipped, nil
}
