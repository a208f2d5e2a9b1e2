package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"serena/internal/cq"
	"serena/internal/obs"
	"serena/internal/pems"
	"serena/internal/query"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
	"serena/internal/wal"
	"serena/internal/wire"
)

// engine is one freshly set-up pems facade running a workload, configured
// as pemsd configures its embedded core by default: self-telemetry on,
// default trace sampling and, for durable workloads, a WAL with
// fsync=interval and a checkpoint every 50 ticks.
type engine struct {
	w      workload
	p      *pems.PEMS
	dir    string
	tr     *tracer // nil in plain runs
	stream *stream.XDRelation
	query  *cq.Query
	server *wire.Server
	client *wire.Client
}

// checkpointEvery is pemsd's default checkpoint cadence, kept as is.
const checkpointEvery = 50

// open is the part of set-up a recovering engine shares with a fresh one:
// the facade, the WAL, self-telemetry, prototypes and services.
func open(w workload, dir string, tr *tracer, ref reference) (*engine, error) {
	e := &engine{w: w, p: pems.New(), dir: dir, tr: tr}
	if w.params().durable {
		if err := e.p.EnableDurability(dir, wal.Options{Fsync: wal.SyncInterval, CheckpointEvery: checkpointEvery}); err != nil {
			return e, err
		}
		if tr != nil {
			tr.decorateWAL(e.p)
		}
	}
	if _, err := e.p.EnableSelfTelemetry(cq.TelemetryOptions{}); err != nil {
		return e, err
	}
	for _, proto := range w.prototypes() {
		if err := e.p.Registry().RegisterPrototype(proto); err != nil {
			return e, err
		}
	}
	return e, w.services(e, ref)
}

// setUp builds a fresh engine ready for its first tick and reports how long
// that took: facade, WAL open and recovery of an empty directory, services
// and wire dial, DDL with population, and query registration.
func setUp(w workload, dir string, tr *tracer, ref reference) (*engine, cost, error) {
	m := startMeter()
	e, err := open(w, dir, tr, ref)
	if err == nil && w.params().durable {
		_, err = e.p.Recover()
	}
	if err == nil {
		err = e.p.ExecuteDDL(w.ddl())
	}
	if err == nil {
		err = e.attach(ref)
	}
	took := m.stop()
	if err != nil {
		e.close()
		return nil, cost{}, fmt.Errorf("set-up: %w", err)
	}
	return e, took, nil
}

// attach finds the workload's input stream and query and hooks the
// reference to the query's effects.
func (e *engine) attach(ref reference) error {
	p := e.w.params()
	x, ok := e.p.Executor().Relation(p.stream)
	if !ok {
		return fmt.Errorf("no stream %q", p.stream)
	}
	q, ok := e.p.Executor().Query(p.query)
	if !ok {
		return fmt.Errorf("no query %q", p.query)
	}
	e.stream, e.query = x, q
	e.w.hook(e, ref)
	return nil
}

// register adds a service to the engine's registry, wrapped in a timing
// decorator in traced runs.
func (e *engine) register(s service.Service) error {
	if e.tr != nil {
		s = e.tr.wrap(s)
	}
	return e.p.Registry().Register(s)
}

// close shuts the engine down cleanly (a final checkpoint for durable
// workloads) and stops its ticker and loopback peer.
func (e *engine) close() {
	e.p.Close()
	e.closePeer()
}

// abandon drops the engine the way a crash would: the WAL is closed without
// the final checkpoint a clean Close writes.
func (e *engine) abandon() {
	if m := e.p.WAL(); m != nil {
		_ = m.Close() // the engine is discarded; its directory is read by recovery only
	}
	e.closePeer()
}

func (e *engine) closePeer() {
	if e.client != nil {
		_ = e.client.Close() // loopback connection of a discarded engine
	}
	if e.server != nil {
		_ = e.server.Close()
	}
}

// tick runs one Tick(); traced runs time it and sum the queries' own
// evaluation latencies.
func (e *engine) tick() error {
	if e.tr == nil || !e.tr.measuring.Load() {
		_, err := e.p.Tick()
		return err
	}
	start := time.Now()
	_, err := e.p.Tick()
	elapsed := time.Since(start)
	var eval time.Duration
	for _, name := range e.p.Executor().QueryNames() {
		if q, ok := e.p.Executor().Query(name); ok {
			eval += q.LastEvalLatency()
		}
	}
	e.tr.tick(elapsed, eval)
	return err
}

// offer hands one event to the input stream; traced runs time the call and
// sample the ingest backlog.
func (e *engine) offer(t value.Tuple) error {
	if e.tr == nil || !e.tr.measuring.Load() {
		return e.p.Offer(e.w.params().stream, t)
	}
	start := time.Now()
	err := e.p.Offer(e.w.params().stream, t)
	e.tr.offer(time.Since(start), e.stream.IngestDepth())
	return err
}

// retained counts the tuples the engine keeps for its base streams:
// Σ len(Current()) + EventCount().
func (e *engine) retained() int64 {
	var n int64
	for _, name := range e.p.Executor().RelationNames() {
		x, ok := e.p.Executor().Relation(name)
		if !ok || !x.Infinite() || x.Ephemeral() || e.p.Executor().Materialized(name) {
			continue
		}
		if _, derived := e.p.Executor().Query(name); derived {
			continue
		}
		n += int64(len(x.Current()) + x.EventCount())
	}
	return n
}

// actions is Σ Actions().Len() over the registered queries.
func (e *engine) actions() int64 {
	var n int64
	for _, name := range e.p.Executor().QueryNames() {
		if q, ok := e.p.Executor().Query(name); ok {
			n += int64(q.Actions().Len())
		}
	}
	return n
}

// outcome tallies what one phase offered and what failed.
type outcome struct {
	offered int
	failed  int
	first   string // description of the first failure
}

func (o *outcome) fail(n int, why string) {
	if n <= 0 {
		return
	}
	o.failed += n
	if o.first == "" {
		o.first = why
	}
}

func (o *outcome) add(p outcome) {
	o.offered += p.offered
	o.fail(p.failed, p.first)
}

// generator produces the seeded event sequence shared by every phase of a
// run: the engine receives only these tuples.
type generator struct {
	w   workload
	rng *rand.Rand
	seq int64
}

// next offers the next event to e, recording its expected effects in ref
// first. tick is the sat tick that will drain it, or -1 in the live phase.
func (g *generator) next(e *engine, ref reference, tick int, o *outcome) {
	t := g.w.event(g.rng, g.seq)
	ref.offered(g.seq, t, tick)
	g.seq++
	o.offered++
	if err := e.offer(t); err != nil {
		o.fail(1, "offer: "+err.Error())
	}
}

// satRound is one closed-loop round on a fresh engine: warm-up, then
// roundTicks timed iterations of offering a batch and calling Tick().
type satRound struct {
	setup   cost
	ticks   cost
	events  int
	heapMB  float64
	recover []cost
	outcome
}

func runSatRound(g *generator, dir string, tr *tracer) (satRound, error) {
	w := g.w
	p := w.params()
	ref := w.newReference()
	e, setup, err := setUp(w, dir, tr, ref)
	if err != nil {
		return satRound{}, err
	}
	r := satRound{setup: setup}
	tick := 0
	step := func() {
		for i := 0; i < p.batch; i++ {
			g.next(e, ref, tick, &r.outcome)
		}
		if err := e.tick(); err != nil {
			r.fail(1, "tick: "+err.Error())
		}
		tick++
	}
	for tick < p.warmTicks {
		step()
	}
	runtime.GC()
	if tr != nil {
		tr.begin()
	}
	m := startMeter()
	for i := 0; i < p.roundTicks; i++ {
		step()
	}
	r.ticks = m.stop()
	r.events = p.roundTicks * p.batch
	if tr != nil {
		tr.end(e, r.events)
	}
	if p.durable {
		// Crash halfway between two checkpoints, so recovery restores one
		// and replays a WAL tail of checkpointEvery/2 ticks.
		for tick%checkpointEvery != checkpointEvery/2 {
			step()
		}
	}
	if n, why := ref.verify(e); n > 0 {
		r.fail(n, why)
	}
	if _, shed := e.stream.IngestStats(); shed > 0 {
		r.fail(int(shed), fmt.Sprintf("%s shed %d events", p.stream, shed))
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	rec, o, err := recoverFrom(e, tr)
	if err != nil {
		return r, err
	}
	r.recover = rec
	r.fail(o.failed, o.first)
	return r, nil
}

// recoverFrom times fresh engines taking over the state the crashed engine
// left: Recover() on a copy of its data directory (a checkpoint plus a WAL
// tail, no clean Close) for durable workloads, Restore of its executor
// snapshot for in-memory ones, in both cases through the first tick after.
// Each recovered engine must equal the crashed one at the same instant
// (same result and action set) and must not fire any active β again.
func recoverFrom(live *engine, tr *tracer) ([]cost, outcome, error) {
	var (
		snap  cq.CheckpointState
		times []cost
		o     outcome
	)
	w, dir, want := live.w, live.dir, fingerprint(live)
	if !w.params().durable {
		snap = live.p.Executor().Snapshot()
	}
	live.abandon()
	defer func() {
		_ = os.RemoveAll(dir) // the crashed engine's directory; the run's root is removed anyway
	}()
	for i := 0; i < w.params().recoveries; i++ {
		var t *tracer
		if i == 0 {
			t = tr
		}
		took, err := recoverOnce(w, dir, snap, want, fmt.Sprintf("%s-recovered%d", dir, i), t, &o)
		if err != nil {
			return nil, o, err
		}
		times = append(times, took)
	}
	return times, o, nil
}

func recoverOnce(w workload, from string, snap cq.CheckpointState, want state, dir string, tr *tracer, o *outcome) (cost, error) {
	ref := w.newReference()
	var (
		rec  *engine
		took cost
		err  error
	)
	if w.params().durable {
		if err := copyDir(from, dir); err != nil {
			return cost{}, err
		}
		if rec, err = open(w, dir, nil, ref); err != nil {
			rec.abandon()
			return cost{}, fmt.Errorf("recovery set-up: %w", err)
		}
		runtime.GC()
		before := obs.Default.Snapshot()
		m := startMeter()
		_, err = rec.p.Recover()
		took = m.stop()
		if tr != nil {
			tr.replayed(before, obs.Default.Snapshot())
		}
		if err == nil {
			err = rec.attach(ref)
		}
	} else {
		if rec, _, err = setUp(w, dir, nil, ref); err != nil {
			return cost{}, fmt.Errorf("recovery set-up: %w", err)
		}
		runtime.GC()
		m := startMeter()
		err = rec.p.Executor().Restore(snap)
		took = m.stop()
	}
	defer func() {
		rec.abandon()
		_ = os.RemoveAll(dir) // this recovery's copy only
	}()
	if err != nil {
		return cost{}, fmt.Errorf("recovery: %w", err)
	}
	if d := want.diff(fingerprint(rec)); d != "" {
		o.fail(1, "recovery: "+d)
	}
	m := startMeter()
	if _, err := rec.p.Tick(); err != nil {
		return cost{}, fmt.Errorf("first tick after recovery: %w", err)
	}
	first := m.stop()
	took.wall += first.wall
	took.cpu += first.cpu
	if n, d := ref.verify(rec); n > 0 {
		o.fail(n, "after recovery: "+d)
	}
	return took, nil
}

// copyDir copies the regular files of a data directory.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// state is what Definition 9 compares between two engines at the same
// instant: the checked query's result and every query's action set.
type state struct {
	now     service.Instant
	result  string
	actions map[string]*query.ActionSet
}

func fingerprint(e *engine) state {
	st := state{now: e.p.Now(), result: tupleKeys(e.query.Output().Current()), actions: map[string]*query.ActionSet{}}
	for _, name := range e.p.Executor().QueryNames() {
		if q, ok := e.p.Executor().Query(name); ok {
			st.actions[name] = q.Actions()
		}
	}
	return st
}

// diff describes how got differs from s, or returns "".
func (s state) diff(got state) string {
	if got.now != s.now {
		return fmt.Sprintf("instant %d, want %d", got.now, s.now)
	}
	if got.result != s.result {
		return "result differs"
	}
	for name, want := range s.actions {
		a, ok := got.actions[name]
		if !ok {
			return fmt.Sprintf("query %s missing", name)
		}
		if !a.Equal(want) {
			return fmt.Sprintf("query %s action set: %d actions, want %d", name, a.Len(), want.Len())
		}
	}
	return ""
}

func tupleKeys(ts []value.Tuple) string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// livePhase is the open loop: events are offered at the stated rate while
// StartTicker ticks at the stated interval, and each effect is timed from
// its event's scheduled send time.
type livePhase struct {
	setup     cost
	latencies []time.Duration
	lags      []time.Duration
	outcome
}

// settleTimeout bounds how long the live phase waits, after the last event,
// for all effects to show before it counts the missing ones as failed.
const settleTimeout = 10 * time.Second

func runLive(g *generator, dir string, tr *tracer, seconds float64) (livePhase, error) {
	w := g.w
	p := w.params()
	ref := w.newReference()
	e, setup, err := setUp(w, dir, tr, ref)
	if err != nil {
		return livePhase{}, err
	}
	defer e.close()
	l := livePhase{setup: setup}
	for i := 0; i < p.prefillTicks; i++ {
		for j := 0; j < p.batch; j++ {
			g.next(e, ref, -1, &l.outcome)
		}
		if err := e.tick(); err != nil {
			l.fail(1, "tick: "+err.Error())
		}
	}
	runtime.GC()
	var tickErrs atomic.Int64
	var firstTickErr atomic.Value
	if err := e.p.StartTicker(p.tick, func(err error) {
		tickErrs.Add(1)
		firstTickErr.CompareAndSwap(nil, err.Error())
	}); err != nil {
		return l, err
	}
	if tr != nil {
		tr.begin()
	}
	period := time.Duration(float64(time.Second) / p.rate)
	n := int(seconds * p.rate)
	start := time.Now()
	ref.timing().begin(start, period, g.seq)
	l.lags = make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		l.lags = append(l.lags, time.Since(due))
		g.next(e, ref, -1, &l.outcome)
	}
	deadline := time.Now().Add(settleTimeout)
	for !ref.settled() && time.Now().Before(deadline) {
		time.Sleep(p.tick)
	}
	e.p.StopTicker()
	if tr != nil {
		tr.end(e, n)
	}
	if n := tickErrs.Load(); n > 0 {
		l.fail(int(n), fmt.Sprintf("tick: %v", firstTickErr.Load()))
	}
	if n, why := ref.verify(e); n > 0 {
		l.fail(n, why)
	}
	if _, shed := e.stream.IngestStats(); shed > 0 {
		l.fail(int(shed), fmt.Sprintf("%s shed %d events", p.stream, shed))
	}
	l.latencies = ref.timing().recorded()
	return l, nil
}

// dirs hands out fresh data directories under the run's root.
type dirs struct {
	root string
	n    int
}

func (d *dirs) next() string {
	d.n++
	return fmt.Sprintf("%s/engine%03d", d.root, d.n)
}

func (d *dirs) remove() {
	_ = os.RemoveAll(d.root) // scratch space of this run only
}

// cost is the wall-clock and process CPU time of one measured span.
type cost struct {
	wall, cpu time.Duration
}

// meter starts measuring a span; its stop returns the span's cost.
type meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() meter { return meter{time.Now(), cpuTime()} }

func (m meter) stop() cost { return cost{time.Since(m.wall), cpuTime() - m.cpu} }

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
