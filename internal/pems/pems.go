// Package pems assembles the Pervasive Environment Management System of
// the paper's Figure 1 (Gripay et al., EDBT 2010, Section 5): the core
// Environment Resource Manager (central service registry + discovery
// manager reaching distributed Local ERMs), the Extended Table Manager
// (Serena DDL over XD-Relations) and the Query Processor (one-shot and
// continuous Serena Algebra Language queries, with optional logical
// optimization).
package pems

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
	"unicode"

	"serena/internal/algebra"
	"serena/internal/catalog"
	"serena/internal/cq"
	"serena/internal/ddl"
	"serena/internal/discovery"
	"serena/internal/obs"
	"serena/internal/optimizer"
	"serena/internal/query"
	"serena/internal/resilience"
	"serena/internal/rewrite"
	"serena/internal/sal"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/ssql"
	"serena/internal/stream"
	"serena/internal/value"
	"serena/internal/wal"
)

// PEMS is one Pervasive Environment Management System instance.
type PEMS struct {
	registry *service.Registry
	catalog  *catalog.Catalog
	exec     *cq.Executor
	manager  *discovery.Manager

	mu          sync.Mutex
	wal         *wal.Manager
	discoRels   []*discoveryRelation
	feedStates  map[string]*feedState
	tickerStop  chan struct{}
	tickerDone  chan struct{}
	parallelism int
	batchSize   int
	tickBudget  time.Duration
	coalescing  bool

	// explainOut receives the output of EXPLAIN [ANALYZE] DDL statements
	// (default: discarded; the serena shell points it at stdout).
	explainOut io.Writer
	// metricsShutdown stops the HTTP observability endpoint, if running.
	metricsShutdown func()
}

// Option configures a PEMS.
type Option func(*PEMS)

// WithDiscovery attaches a discovery bus: Local ERM nodes announcing on the
// bus are dialed and their services registered centrally.
func WithDiscovery(bus discovery.Bus, opts ...discovery.Option) Option {
	return func(p *PEMS) {
		p.manager = discovery.NewManager(p.registry, bus, opts...)
	}
}

// New builds a PEMS. The catalog's relations are automatically registered
// with the continuous executor.
func New(opts ...Option) *PEMS {
	reg := service.NewRegistry()
	p := &PEMS{
		registry:   reg,
		catalog:    catalog.New(reg),
		exec:       cq.NewExecutor(reg),
		feedStates: map[string]*feedState{},
	}
	p.catalog.OnCreateRelation = func(x *stream.XDRelation) {
		_ = p.exec.AddRelation(x)
	}
	obs.PublishExpvar()
	for _, o := range opts {
		o(p)
	}
	if p.manager != nil {
		p.manager.Start()
	}
	return p
}

// Close stops the real-time ticker (if running), discovery, and the HTTP
// observability endpoint. With durability enabled it writes a final
// checkpoint and closes the WAL, so a clean shutdown restarts without any
// log replay.
func (p *PEMS) Close() {
	p.StopTicker()
	if p.manager != nil {
		p.manager.Stop()
	}
	p.closeDurability()
	p.mu.Lock()
	shutdown := p.metricsShutdown
	p.metricsShutdown = nil
	p.mu.Unlock()
	if shutdown != nil {
		shutdown()
	}
}

// Registry returns the central service registry (the core ERM's view of
// the environment).
func (p *PEMS) Registry() *service.Registry { return p.registry }

// Catalog returns the Extended Table Manager.
func (p *PEMS) Catalog() *catalog.Catalog { return p.catalog }

// Executor returns the continuous Query Processor.
func (p *PEMS) Executor() *cq.Executor { return p.exec }

// Discovery returns the discovery manager, or nil without WithDiscovery.
func (p *PEMS) Discovery() *discovery.Manager { return p.manager }

// SetInvocationParallelism bounds how many service invocations one
// invocation operator may run concurrently, for both one-shot and
// continuous queries (Section 5.1: invocations are handled asynchronously;
// sound because services are deterministic at a given instant, Section
// 3.2). Values < 2 keep the sequential default.
func (p *PEMS) SetInvocationParallelism(n int) {
	p.mu.Lock()
	p.parallelism = n
	p.mu.Unlock()
	p.exec.SetParallelism(n)
}

func (p *PEMS) invocationParallelism() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parallelism
}

// SetInvocationBatchSize bounds how many β invocations the batch planner
// packs into one registry dispatch (one wire frame per remote chunk), for
// both one-shot and continuous queries. Zero restores the default
// (query.DefaultBatchSize); negative disables batching entirely, keeping
// the per-tuple invocation path.
func (p *PEMS) SetInvocationBatchSize(n int) {
	p.mu.Lock()
	p.batchSize = n
	p.mu.Unlock()
	p.exec.SetBatchSize(n)
}

func (p *PEMS) invocationBatchSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.batchSize
}

// SetQueryParallelism bounds how many registered continuous queries one
// tick evaluates concurrently. Queries reading another query's output
// always run after their producer, so derived views keep their
// same-instant semantics. Values < 2 keep the sequential default.
func (p *PEMS) SetQueryParallelism(n int) {
	p.exec.SetQueryParallelism(n)
}

// SetInvocationTimeout bounds every physical service invocation (local or
// remote) performed through this PEMS. Zero disables the deadline.
func (p *PEMS) SetInvocationTimeout(d time.Duration) { p.registry.SetInvokeTimeout(d) }

// SetRetryPolicy configures transparent retries of failed invocations.
// Only PASSIVE prototypes are ever retried — retrying an active invocation
// could duplicate its external effect and inflate the query's action set
// (Definition 8); see DESIGN.md, "Failure semantics".
func (p *PEMS) SetRetryPolicy(rp resilience.RetryPolicy) { p.registry.SetRetryPolicy(rp) }

// EnableBreakers turns on per-service circuit breakers: a service failing
// repeatedly is treated as temporarily withdrawn from the environment (its
// breaker opens, it disappears from discovery) until a half-open probe
// succeeds.
func (p *PEMS) EnableBreakers(policy resilience.BreakerPolicy) *resilience.BreakerSet {
	return p.registry.EnableBreakers(policy)
}

// BreakerStates reports the breaker state of every tracked service; nil if
// breakers are not enabled.
func (p *PEMS) BreakerStates() map[string]resilience.State {
	b := p.registry.Breakers()
	if b == nil {
		return nil
	}
	return b.States()
}

// SetQueryDegradation sets the β degradation policy of a registered
// continuous query (what a failing bound service does to the query:
// abort, drop the tuple, or null-fill its virtual attributes).
func (p *PEMS) SetQueryDegradation(name string, policy resilience.DegradationPolicy) error {
	return p.exec.SetDegradation(name, policy)
}

// ExecuteDDL runs a Serena DDL script. Data statements are stamped at the
// next tick instant so running continuous queries observe them on the
// following Tick. REGISTER QUERY statements are compiled (Serena SQL or
// Serena Algebra Language, auto-detected) and registered with the query
// processor with optimization enabled, so a single script can declare a
// whole application (Section 5.1: the Query Processor "allows to register
// queries"). An ON ERROR clause on a REGISTER QUERY selects the query's β
// degradation policy.
func (p *PEMS) ExecuteDDL(src string) error {
	stmts, err := ddl.Parse(src)
	if err != nil {
		return err
	}
	at := p.exec.Now() + 1
	for i, st := range stmts {
		switch t := st.(type) {
		case *ddl.RegisterQuery:
			opts := cq.RegisterOptions{Into: t.Into, Retain: service.Instant(t.Retain)}
			var q *cq.Query
			if LooksLikeSQL(t.Source) {
				q, err = p.registerQuerySQL(t.Name, t.Source, true, opts)
			} else {
				q, err = p.registerQuery(t.Name, t.Source, true, opts)
			}
			if err == nil && t.OnError != "" {
				var policy resilience.DegradationPolicy
				if policy, err = resilience.ParsePolicy(t.OnError); err == nil {
					err = p.exec.SetDegradation(t.Name, policy)
				}
			}
			if err == nil {
				// Logged after ON ERROR applies so replay restores the policy.
				p.logQueryDDL(q)
			}
		case *ddl.UnregisterQuery:
			err = p.UnregisterQuery(t.Name)
		case *ddl.Explain:
			err = p.runExplain(t)
		default:
			if err = p.catalog.Execute(st, at); err == nil {
				p.logCatalogDDL(st, at)
			}
		}
		if err != nil {
			slog.Error("pems: ddl statement failed", "statement", i+1, "err", err.Error())
			return fmt.Errorf("pems: statement %d: %w", i+1, err)
		}
	}
	slog.Debug("pems: ddl script executed", "statements", len(stmts), "at", int64(at))
	return nil
}

// OneShot parses and evaluates a one-shot SAL query against the current
// state of the environment (Definition 7; evaluation instant = the last
// executed tick, or 0 before any tick).
func (p *PEMS) OneShot(src string) (*query.Result, error) {
	n, err := sal.Parse(src)
	if err != nil {
		return nil, err
	}
	at := p.exec.Now()
	if at < 0 {
		at = 0
	}
	ctx := query.NewContext(p.Env(at), p.registry, at)
	ctx.Parallelism = p.invocationParallelism()
	ctx.BatchSize = p.invocationBatchSize()
	return query.EvaluateCtx(n, ctx)
}

// OneShotSQL compiles and evaluates a one-shot Serena SQL query.
func (p *PEMS) OneShotSQL(src string) (*query.Result, error) {
	env := p.snapshotEnv()
	st, err := ssql.Compile(src, env)
	if err != nil {
		return nil, err
	}
	at := p.exec.Now()
	if at < 0 {
		at = 0
	}
	ctx := query.NewContext(p.Env(at), p.registry, at)
	ctx.Parallelism = p.invocationParallelism()
	ctx.BatchSize = p.invocationBatchSize()
	return query.EvaluateCtx(st.Root, ctx)
}

// RegisterQuerySQL compiles a Serena SQL query and registers it as a
// continuous query, optionally running the optimizer over the compiled
// plan.
func (p *PEMS) RegisterQuerySQL(name, src string, optimize bool) (*cq.Query, error) {
	q, err := p.registerQuerySQL(name, src, optimize, cq.RegisterOptions{})
	if err == nil {
		p.logQueryDDL(q)
	}
	return q, err
}

func (p *PEMS) registerQuerySQL(name, src string, optimize bool, opts cq.RegisterOptions) (*cq.Query, error) {
	env := p.snapshotEnv()
	st, err := ssql.Compile(src, env)
	if err != nil {
		return nil, err
	}
	n := st.Root
	if optimize {
		opt := optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env}, optimizer.DefaultCostModel())
		if plan, err := opt.Optimize(n, env); err == nil {
			n = plan.Root
		}
	}
	return p.exec.RegisterWith(name, n, opts)
}

// RegisterQuery parses a SAL query, optionally optimizes it (Table 5
// rewrites under the invocation-dominant cost model) and registers it as a
// continuous query.
func (p *PEMS) RegisterQuery(name, src string, optimize bool) (*cq.Query, error) {
	q, err := p.registerQuery(name, src, optimize, cq.RegisterOptions{})
	if err == nil {
		p.logQueryDDL(q)
	}
	return q, err
}

// RegisterQueryWith is RegisterQuery plus the INTO/RETAIN clauses: the
// query's output is materialized as a named derived XD-Relation (durable
// like a base relation in WAL-backed environments) with an optional
// per-relation retention horizon. SQL sources are auto-detected like in
// ExecuteDDL.
func (p *PEMS) RegisterQueryWith(name, src string, optimize bool, opts cq.RegisterOptions) (*cq.Query, error) {
	var (
		q   *cq.Query
		err error
	)
	if LooksLikeSQL(src) {
		q, err = p.registerQuerySQL(name, src, optimize, opts)
	} else {
		q, err = p.registerQuery(name, src, optimize, opts)
	}
	if err == nil {
		p.logQueryDDL(q)
	}
	return q, err
}

func (p *PEMS) registerQuery(name, src string, optimize bool, opts cq.RegisterOptions) (*cq.Query, error) {
	n, err := sal.Parse(src)
	if err != nil {
		return nil, err
	}
	if optimize {
		env := p.snapshotEnv()
		opt := optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env}, optimizer.DefaultCostModel())
		plan, err := opt.Optimize(n, env)
		if err == nil {
			n = plan.Root
		}
		// Optimization failures (e.g. missing statistics) fall back to the
		// unoptimized plan — never block registration.
	}
	return p.exec.RegisterWith(name, n, opts)
}

// Explanation reports how a query would be planned: the original and
// optimized plans in SAL syntax, the applied rewrite steps, and the
// estimated costs under the invocation-dominant cost model.
type Explanation struct {
	Original   string
	Optimized  string
	Steps      []rewrite.Step
	CostBefore float64
	CostAfter  float64
}

// Explain plans a query without executing it. Sources starting with SELECT
// (case-insensitive) are compiled as Serena SQL; everything else parses as
// Serena Algebra Language.
func (p *PEMS) Explain(src string) (*Explanation, error) {
	env := p.snapshotEnv()
	var n query.Node
	trimmed := strings.TrimSpace(src)
	if LooksLikeSQL(trimmed) {
		st, err := ssql.Compile(trimmed, env)
		if err != nil {
			return nil, err
		}
		n = st.Root
	} else {
		var err error
		n, err = sal.Parse(trimmed)
		if err != nil {
			return nil, err
		}
	}
	opt := optimizer.New(rewrite.DefaultRules(), optimizer.EnvStats{Env: env}, optimizer.DefaultCostModel())
	plan, err := opt.Optimize(n, env)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Original:   n.String(),
		Optimized:  plan.Root.String(),
		Steps:      plan.Steps,
		CostBefore: plan.CostBefore,
		CostAfter:  plan.CostAfter,
	}, nil
}

// SetExplainOutput directs the output of EXPLAIN [ANALYZE] DDL statements
// to w (nil restores the default of discarding it). The serena shell sets
// this to its stdout so scripted EXPLAINs print like interactive ones.
func (p *PEMS) SetExplainOutput(w io.Writer) {
	p.mu.Lock()
	p.explainOut = w
	p.mu.Unlock()
}

func (p *PEMS) explainWriter() io.Writer {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.explainOut == nil {
		return io.Discard
	}
	return p.explainOut
}

// runExplain executes an EXPLAIN [ANALYZE] DDL statement, writing the plan
// (or trace) to the configured explain output.
func (p *PEMS) runExplain(st *ddl.Explain) error {
	w := p.explainWriter()
	if st.Analyze {
		rep, err := p.ExplainAnalyze(st.Source)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, rep.Plan)
		return err
	}
	ex, err := p.Explain(st.Source)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "original:  %s\n", ex.Original)
	for _, step := range ex.Steps {
		fmt.Fprintf(w, "  %-28s -> %s\n", step.Rule, step.Result)
	}
	fmt.Fprintf(w, "optimized: %s\n", ex.Optimized)
	fmt.Fprintf(w, "estimated cost: %.0f -> %.0f\n", ex.CostBefore, ex.CostAfter)
	return nil
}

// TraceReport is the outcome of an EXPLAIN ANALYZE run: the annotated
// physical plan (one line per operator with calls, input/output
// cardinalities, and wall/self times) plus the result it was measured on.
type TraceReport struct {
	Plan   string
	Result *query.Result
}

// ExplainAnalyze actually executes a query with every operator instrumented
// (EXPLAIN ANALYZE semantics): the plan tree is rebuilt with tracing
// wrappers, evaluated at the current instant, and rendered with measured
// per-operator cardinalities and timings. A leading EXPLAIN [ANALYZE]
// keyword pair in src is accepted and ignored. Beware: active invocations
// in the query DO fire — EXPLAIN ANALYZE runs the query for real.
func (p *PEMS) ExplainAnalyze(src string) (*TraceReport, error) {
	body, _, _ := StripExplain(src)
	env := p.snapshotEnv()
	var n query.Node
	if LooksLikeSQL(body) {
		st, err := ssql.Compile(body, env)
		if err != nil {
			return nil, err
		}
		n = st.Root
	} else {
		var err error
		n, err = sal.Parse(body)
		if err != nil {
			return nil, err
		}
	}
	traced, err := query.Instrument(n)
	if err != nil {
		return nil, err
	}
	at := p.exec.Now()
	if at < 0 {
		at = 0
	}
	ctx := query.NewContext(p.Env(at), p.registry, at)
	ctx.Parallelism = p.invocationParallelism()
	ctx.BatchSize = p.invocationBatchSize()
	res, err := query.EvaluateCtx(traced, ctx)
	if err != nil {
		// A failed evaluation still carries a partial trace (the error is
		// annotated on the operator that raised it).
		return &TraceReport{Plan: traced.Render()}, err
	}
	return &TraceReport{Plan: traced.Render(), Result: res}, nil
}

// StripExplain removes an optional leading EXPLAIN [ANALYZE] keyword pair
// from a query source, reporting which prefixes were present. It lets
// shells accept "EXPLAIN ANALYZE <query>" for SAL sources too (the SQL
// compiler recognizes the prefix natively).
func StripExplain(src string) (body string, explain, analyze bool) {
	body = strings.TrimSpace(src)
	if head, rest := headWord(body); strings.EqualFold(head, "EXPLAIN") && rest != "" {
		explain = true
		body = rest
		if head, rest = headWord(body); strings.EqualFold(head, "ANALYZE") && rest != "" {
			analyze = true
			body = rest
		}
	}
	return body, explain, analyze
}

// headWord splits a trimmed source into its first whitespace-delimited word
// and the trimmed remainder ("" if there is no remainder).
func headWord(s string) (word, rest string) {
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// LooksLikeSQL reports whether a query source is Serena SQL rather than
// Serena Algebra Language: it starts with the SELECT keyword followed by
// whitespace (the SAL operator of the same name is written "select[…]").
// A bracket after the keyword — even space-separated, as produced when the
// DDL parser re-tokenizes a REGISTER QUERY body — means SAL.
func LooksLikeSQL(src string) bool {
	t := strings.TrimSpace(src)
	if len(t) < 7 || !strings.EqualFold(t[:6], "SELECT") {
		return false
	}
	switch t[6] {
	case ' ', '\t', '\n', '\r':
	default:
		return false
	}
	rest := strings.TrimLeft(t[6:], " \t\n\r")
	return !strings.HasPrefix(rest, "[")
}

// snapshotEnv exposes the environment's current contents for planning.
func (p *PEMS) snapshotEnv() query.Environment {
	at := p.exec.Now()
	if at < 0 {
		at = 0
	}
	return p.Env(at)
}

// Env returns a snapshot query.Environment at the given instant over ALL
// relations of this PEMS — catalog tables as well as executor-only streams
// (poll streams, feed streams, discovery relations).
func (p *PEMS) Env(at service.Instant) query.Environment {
	return pemsEnv{p: p, at: at}
}

type pemsEnv struct {
	p  *PEMS
	at service.Instant
}

// Relation implements query.Environment.
func (e pemsEnv) Relation(name string) (*algebra.XRelation, error) {
	x, ok := e.p.exec.Relation(name)
	if !ok {
		return nil, fmt.Errorf("pems: unknown relation %q", name)
	}
	return algebra.New(x.Schema(), x.At(e.at))
}

// UnregisterQuery removes a continuous query.
func (p *PEMS) UnregisterQuery(name string) error {
	if err := p.exec.Unregister(name); err != nil {
		return err
	}
	p.logUnregisterDDL(name)
	return nil
}

// Tick advances the environment clock one instant.
func (p *PEMS) Tick() (service.Instant, error) { return p.exec.Tick() }

// RunUntil ticks until (and including) the given instant.
func (p *PEMS) RunUntil(at service.Instant) error { return p.exec.RunUntil(at) }

// Now returns the last executed instant.
func (p *PEMS) Now() service.Instant { return p.exec.Now() }

// StartTicker drives the discrete clock in real time: one Tick per
// interval (the paper's prototype executes continuous queries "in a
// real-time fashion", Section 5.1), plus a discovery-lease sweep. Tick
// errors are passed to onErr (which may be nil). Starting twice errors;
// StopTicker (or Close) stops the clock.
func (p *PEMS) StartTicker(interval time.Duration, onErr func(error)) error {
	if interval <= 0 {
		return fmt.Errorf("pems: ticker interval must be positive")
	}
	p.mu.Lock()
	if p.tickerStop != nil {
		p.mu.Unlock()
		return fmt.Errorf("pems: ticker already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.tickerStop, p.tickerDone = stop, done
	p.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := p.Tick(); err != nil {
					slog.Error("pems: ticker tick failed", "err", err.Error())
					if onErr != nil {
						onErr(err)
					}
				}
				p.SweepExpiredNodes()
			}
		}
	}()
	return nil
}

// StopTicker stops the real-time clock (idempotent) and waits for the
// ticker goroutine to exit.
func (p *PEMS) StopTicker() {
	p.mu.Lock()
	stop, done := p.tickerStop, p.tickerDone
	p.tickerStop, p.tickerDone = nil, nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// SweepExpiredNodes expires discovery leases (call periodically in live
// deployments).
func (p *PEMS) SweepExpiredNodes() []string {
	if p.manager == nil {
		return nil
	}
	return p.manager.SweepExpired(time.Now())
}

// ---------------------------------------------------------------------------
// Service-discovery relations (Section 5.1: the Query Processor
// "continuously updates some specific XD-Relations so that they represent
// the set of services implementing some given prototypes").

// discoveryRelation syncs one XD-Relation with the set of services
// implementing a prototype.
type discoveryRelation struct {
	rel     *stream.XDRelation
	proto   string
	svcIdx  int // real coordinate of the service attribute
	rowFor  func(ref string) value.Tuple
	current map[string]value.Tuple // ref → row currently in the relation
}

// AddDiscoveryRelation declares an XD-Relation whose rows track the
// services implementing the given prototype. The relation schema must
// carry the service attribute named svcAttr; rowFor builds the row for a
// newly discovered reference (nil → the row is the reference plus NULLs).
// Rows are reconciled at every tick, so services appearing or disappearing
// are reflected at the next instant — live, while continuous queries run.
func (p *PEMS) AddDiscoveryRelation(sch *schema.Extended, svcAttr, protoName string, rowFor func(ref string) value.Tuple) (*stream.XDRelation, error) {
	if !sch.IsReal(svcAttr) {
		return nil, fmt.Errorf("pems: discovery relation %s: %q must be a real attribute", sch.Name(), svcAttr)
	}
	if _, err := p.registry.Prototype(protoName); err != nil {
		return nil, err
	}
	rel := stream.NewFinite(sch)
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	svcIdx := sch.RealIndex(svcAttr)
	if rowFor == nil {
		width := sch.RealArity()
		rowFor = func(ref string) value.Tuple {
			row := make(value.Tuple, width)
			for i := range row {
				row[i] = value.NewNull()
			}
			row[svcIdx] = value.NewService(ref)
			return row
		}
	}
	d := &discoveryRelation{rel: rel, proto: protoName, svcIdx: svcIdx, rowFor: rowFor, current: map[string]value.Tuple{}}
	p.mu.Lock()
	p.discoRels = append(p.discoRels, d)
	first := len(p.discoRels) == 1
	p.mu.Unlock()
	if first {
		p.exec.AddSource(p.syncDiscoveryRelations)
	}
	return rel, nil
}

// syncDiscoveryRelations reconciles every discovery relation with the
// registry at the given instant.
func (p *PEMS) syncDiscoveryRelations(at service.Instant) error {
	p.mu.Lock()
	rels := append([]*discoveryRelation(nil), p.discoRels...)
	p.mu.Unlock()
	for _, d := range rels {
		want := map[string]bool{}
		for _, ref := range p.registry.Implementing(d.proto) {
			want[ref] = true
		}
		for ref := range want {
			if _, ok := d.current[ref]; ok {
				continue
			}
			row := d.rowFor(ref)
			if err := d.rel.Insert(at, row); err != nil {
				return err
			}
			d.current[ref] = row
		}
		for ref, row := range d.current {
			if want[ref] {
				continue
			}
			if err := d.rel.Delete(at, row); err != nil {
				return err
			}
			delete(d.current, ref)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Poll streams: materialize sensor-style passive prototypes into streams.

// AddPollStream creates an infinite XD-Relation fed by invoking, at every
// tick, the given passive prototype (with empty input) on every service
// implementing it. Each output tuple becomes a stream tuple
// (svcAttr, metaAttrs…, prototype outputs…). The paper's temperatures
// stream (Section 1.2) is AddPollStream("temperatures", "getTemperature",
// "sensor", [location STRING], locationOf).
func (p *PEMS) AddPollStream(name, protoName, svcAttr string, metaAttrs []schema.Attribute, meta func(ref string) []value.Value) (*stream.XDRelation, error) {
	proto, err := p.registry.Prototype(protoName)
	if err != nil {
		return nil, err
	}
	if proto.Active {
		return nil, fmt.Errorf("pems: poll stream %s: prototype %s is active; only passive prototypes may be polled", name, protoName)
	}
	if proto.Input.Arity() != 0 {
		return nil, fmt.Errorf("pems: poll stream %s: prototype %s takes inputs; poll streams need input-free prototypes", name, protoName)
	}
	attrs := []schema.ExtAttr{{Attribute: schema.Attribute{Name: svcAttr, Type: value.Service}}}
	for _, a := range metaAttrs {
		attrs = append(attrs, schema.ExtAttr{Attribute: a})
	}
	for _, a := range proto.Output.Attrs() {
		attrs = append(attrs, schema.ExtAttr{Attribute: a})
	}
	sch, err := schema.NewExtended(name, attrs, nil)
	if err != nil {
		return nil, err
	}
	rel := stream.NewInfinite(sch)
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	if meta == nil {
		meta = func(string) []value.Value {
			out := make([]value.Value, len(metaAttrs))
			for i := range out {
				out[i] = value.NewNull()
			}
			return out
		}
	}
	p.exec.AddSource(func(at service.Instant) error {
		for _, ref := range p.registry.Implementing(protoName) {
			rows, err := p.registry.Invoke(protoName, ref, nil, at)
			if err != nil {
				continue // unreachable device this tick
			}
			md := meta(ref)
			for _, row := range rows {
				tuple := make(value.Tuple, 0, 1+len(md)+len(row))
				tuple = append(tuple, value.NewService(ref))
				tuple = append(tuple, md...)
				tuple = append(tuple, row...)
				if err := rel.Insert(at, tuple); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return rel, nil
}

// ---------------------------------------------------------------------------
// Feed streams (Section 5.2, RSS scenario): wrapper services are polled and
// their new items inserted into a stream.

type feedState struct {
	rel   *stream.XDRelation
	proto string
	since map[string]service.Instant
}

// FeedStreamSchema returns the schema used by AddFeedStream:
// (feed SERVICE, itemId INTEGER, title STRING, published INTEGER).
func FeedStreamSchema(name string) *schema.Extended {
	return schema.MustExtended(name, []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "feed", Type: value.Service}},
		{Attribute: schema.Attribute{Name: "itemId", Type: value.Int}},
		{Attribute: schema.Attribute{Name: "title", Type: value.String}},
		{Attribute: schema.Attribute{Name: "published", Type: value.Int}},
	}, nil)
}

// AddFeedStream creates an infinite XD-Relation fed by polling, at every
// tick, all services implementing the getItems prototype (the RSS wrapper
// of Section 5.2). A tuple is inserted per new feed item.
func (p *PEMS) AddFeedStream(name string) (*stream.XDRelation, error) {
	rel := stream.NewInfinite(FeedStreamSchema(name))
	if err := p.exec.AddRelation(rel); err != nil {
		return nil, err
	}
	fs := &feedState{rel: rel, proto: "getItems", since: map[string]service.Instant{}}
	p.mu.Lock()
	p.feedStates[name] = fs
	p.mu.Unlock()
	p.exec.AddSource(func(at service.Instant) error { return p.pollFeeds(fs, at) })
	return rel, nil
}

func (p *PEMS) pollFeeds(fs *feedState, at service.Instant) error {
	for _, ref := range p.registry.Implementing(fs.proto) {
		since, known := fs.since[ref]
		if !known {
			since = -1
		}
		rows, err := p.registry.Invoke(fs.proto, ref, value.Tuple{value.NewInt(int64(since))}, at)
		if err != nil {
			continue // unreachable feed this tick: retry next tick
		}
		for _, row := range rows {
			tuple := value.Tuple{value.NewService(ref), row[0], row[1], row[2]}
			if err := fs.rel.Insert(at, tuple); err != nil {
				return err
			}
		}
		fs.since[ref] = at
	}
	return nil
}
