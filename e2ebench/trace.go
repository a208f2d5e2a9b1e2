package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"serena/internal/cq"
	"serena/internal/obs"
	"serena/internal/pems"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// tracer gathers the per-layer numbers of a traced run. It times calls into
// public seams only: Tick() and Offer() from the benchmark's own loops, every
// registered service through a timing decorator, the WAL through a
// cq.Durability decorator and a checkpoint callback; and it takes deltas of
// obs.Default counters around the measured spans. Nothing under internal/
// is instrumented for it.
type tracer struct {
	measuring atomic.Bool

	mu          sync.Mutex
	invokes     []time.Duration // each physical call through a decorated service
	items       int64           // invocations those calls carried
	failures    int64
	roundTrips  []time.Duration // calls through decorated remote services
	remoteItems int64
	walBusy     time.Duration // in decorated Durability calls and checkpoints
	checkpoints []time.Duration
	ckptBytes   int64 // largest checkpoint file written
	ticks       []time.Duration
	eval        time.Duration // Σ Query.LastEvalLatency over the timed ticks
	offers      []time.Duration
	backlogMax  int
	events      int64
	retained    int64 // at the end of the last measured span
	actions     int64
	counters    map[string]int64 // obs.Default counter deltas over measured spans
	before      obs.Snapshot
}

func newTracer() *tracer { return &tracer{counters: map[string]int64{}} }

// begin opens a measured span.
func (t *tracer) begin() {
	t.before = obs.Default.Snapshot()
	t.measuring.Store(true)
}

// end closes a measured span of events offered on engine e.
func (t *tracer) end(e *engine, events int) {
	t.measuring.Store(false)
	after := obs.Default.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, v := range after.Counters {
		t.counters[name] += v - t.before.Counters[name]
	}
	t.events += int64(events)
	t.retained = e.retained()
	t.actions = e.actions()
}

// replayed records the WAL records a recovery replayed.
func (t *tracer) replayed(before, after obs.Snapshot) {
	t.mu.Lock()
	t.counters["wal.replay.records"] += after.Counters["wal.replay.records"] - before.Counters["wal.replay.records"]
	t.mu.Unlock()
}

func (t *tracer) tick(elapsed, eval time.Duration) {
	t.mu.Lock()
	t.ticks = append(t.ticks, elapsed)
	t.eval += eval
	t.mu.Unlock()
}

func (t *tracer) offer(elapsed time.Duration, depth int) {
	t.mu.Lock()
	t.offers = append(t.offers, elapsed)
	if depth > t.backlogMax {
		t.backlogMax = depth
	}
	t.mu.Unlock()
}

func (t *tracer) call(remote bool, elapsed time.Duration, items, failures int) {
	if !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	t.invokes = append(t.invokes, elapsed)
	t.items += int64(items)
	t.failures += int64(failures)
	if remote {
		t.roundTrips = append(t.roundTrips, elapsed)
		t.remoteItems += int64(items)
	}
	t.mu.Unlock()
}

func (t *tracer) wal(elapsed time.Duration) {
	if !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	t.walBusy += elapsed
	t.mu.Unlock()
}

// wrap returns s behind a timing decorator that keeps the optional
// interfaces the registry looks for: a remote proxy stays a batch and
// context transport, a local service stays a plain one.
func (t *tracer) wrap(s service.Service) service.Service {
	if r, ok := s.(remoteService); ok {
		return &timedRemote{timedService{s, t}, r}
	}
	return &timedService{s, t}
}

type remoteService interface {
	service.CtxService
	service.BatchCtxService
}

type timedService struct {
	service.Service
	tr *tracer
}

func (s *timedService) Invoke(proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	start := time.Now()
	rows, err := s.Service.Invoke(proto, in, at)
	s.tr.call(false, time.Since(start), 1, failures(err))
	return rows, err
}

type timedRemote struct {
	timedService
	remote remoteService
}

func (s *timedRemote) Invoke(proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	start := time.Now()
	rows, err := s.remote.Invoke(proto, in, at)
	s.tr.call(true, time.Since(start), 1, failures(err))
	return rows, err
}

func (s *timedRemote) InvokeCtx(ctx context.Context, proto string, in value.Tuple, at service.Instant) ([]value.Tuple, error) {
	start := time.Now()
	rows, err := s.remote.InvokeCtx(ctx, proto, in, at)
	s.tr.call(true, time.Since(start), 1, failures(err))
	return rows, err
}

func (s *timedRemote) InvokeBatchCtx(ctx context.Context, proto string, ins []value.Tuple, at service.Instant) []service.InvokeResult {
	start := time.Now()
	out := s.remote.InvokeBatchCtx(ctx, proto, ins, at)
	failed := 0
	for _, r := range out {
		failed += failures(r.Err)
	}
	s.tr.call(true, time.Since(start), len(ins), failed)
	return out
}

func failures(err error) int {
	if err != nil {
		return 1
	}
	return 0
}

// decorateWAL puts the engine's WAL behind a timing cq.Durability decorator
// and a timed checkpoint callback, through the same public calls
// EnableDurability makes.
func (t *tracer) decorateWAL(p *pems.PEMS) {
	m := p.WAL()
	p.Executor().SetDurability(timedDurability{m, t})
	p.Executor().OnCheckpoint(func(st cq.CheckpointState) error {
		start := time.Now()
		err := m.Checkpoint(p.Catalog().DumpSchema(), st)
		elapsed := time.Since(start)
		t.wal(elapsed)
		if t.measuring.Load() {
			fi, statErr := os.Stat(filepath.Join(m.Dir(), "checkpoint"))
			t.mu.Lock()
			t.checkpoints = append(t.checkpoints, elapsed)
			if statErr == nil && fi.Size() > t.ckptBytes {
				t.ckptBytes = fi.Size()
			}
			t.mu.Unlock()
		}
		return err
	})
}

type timedDurability struct {
	inner cq.Durability
	tr    *tracer
}

// AttachRelation passes through: event appends run inside the relation's
// insert path, so they show in cq time rather than here.
func (d timedDurability) AttachRelation(x *stream.XDRelation) { d.inner.AttachRelation(x) }

func (d timedDurability) BeginTick(at service.Instant) error {
	start := time.Now()
	err := d.inner.BeginTick(at)
	d.tr.wal(time.Since(start))
	return err
}

func (d timedDurability) CommitTick(at service.Instant) (bool, error) {
	start := time.Now()
	due, err := d.inner.CommitTick(at)
	d.tr.wal(time.Since(start))
	return due, err
}

func (d timedDurability) ActiveIntent(q string, node int, bp, ref string, in value.Tuple, at service.Instant) error {
	start := time.Now()
	err := d.inner.ActiveIntent(q, node, bp, ref, in, at)
	d.tr.wal(time.Since(start))
	return err
}

func (d timedDurability) ActiveResult(q string, node int, bp, ref string, in value.Tuple, at service.Instant, ok bool, rows []value.Tuple) error {
	start := time.Now()
	err := d.inner.ActiveResult(q, node, bp, ref, in, at, ok, rows)
	d.tr.wal(time.Since(start))
	return err
}

// counterSum adds the deltas of every counter whose name has the prefix and
// the suffix.
func (t *tracer) counterSum(prefix, suffix string) int64 {
	var n int64
	for name, v := range t.counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && !strings.Contains(name, "{") {
			n += v
		}
	}
	return n
}
