// Package stream implements eXtended Dynamic relations — XD-Relations —
// the continuous half of the Serena framework (Gripay et al., EDBT 2010,
// Section 4): time-indexed multisets of tuples over an extended relation
// schema, in the style of CQL. A finite XD-Relation supports insertions and
// deletions and has, at every instant, a finite instantaneous relation; an
// infinite XD-Relation is an append-only stream queried through windows.
package stream

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/value"
)

// EventKind tags insertions and deletions.
type EventKind uint8

// Event kinds.
const (
	Insert EventKind = iota
	Delete
)

// Event is one change to an XD-Relation at a given instant.
type Event struct {
	At    service.Instant
	Kind  EventKind
	Tuple value.Tuple
}

// XDRelation is a dynamic relation: a mapping from time instants to
// multisets of tuples over an extended schema (Section 4.1). It is safe for
// concurrent use. Events may only be appended at non-decreasing instants.
type XDRelation struct {
	mu       sync.RWMutex
	sch      *schema.Extended
	infinite bool
	events   []Event // ordered by At
	lastAt   service.Instant
	// current multiset, kept for finite relations only: tuple → count. A
	// stream's instantaneous relation is the multiset of its retained
	// insert events (Section 4.2 reaches streams only through windows).
	current value.TupleMap[int]
	// onEvent, when set, observes every accepted event in log order (the
	// durability layer appends them to its write-ahead log). Called with
	// the relation lock held; the callback must not re-enter the relation.
	onEvent func(Event)
	// ingest, when configured via SetOverloadPolicy, bounds the producer
	// path with a per-relation staging buffer drained once per tick (see
	// ingest.go). It has its own lock; x.mu only guards the pointer.
	ingest *ingestState
	// ephemeral relations (the sys$ self-telemetry feeds) are excluded
	// from durability: never WAL-attached, never checkpointed, re-seeded
	// by their source after recovery.
	ephemeral bool
}

// NewFinite creates a finite XD-Relation (a dynamic table: insertions and
// deletions allowed, instantaneous relation always finite).
func NewFinite(sch *schema.Extended) *XDRelation {
	return &XDRelation{sch: sch, lastAt: -1}
}

// NewInfinite creates an infinite XD-Relation (an append-only stream).
func NewInfinite(sch *schema.Extended) *XDRelation {
	return &XDRelation{sch: sch, infinite: true, lastAt: -1}
}

// Schema returns the extended relation schema.
func (x *XDRelation) Schema() *schema.Extended { return x.sch }

// Infinite reports whether the XD-Relation is an append-only stream.
func (x *XDRelation) Infinite() bool { return x.infinite }

// Name returns the schema's relation symbol.
func (x *XDRelation) Name() string { return x.sch.Name() }

// MarkEphemeral flags the relation as excluded from durability (WAL and
// checkpoints). Used by the self-telemetry subsystem for sys$ relations,
// whose contents are re-seeded from live engine state after recovery.
func (x *XDRelation) MarkEphemeral() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ephemeral = true
}

// Ephemeral reports whether the relation is excluded from durability.
func (x *XDRelation) Ephemeral() bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.ephemeral
}

// LastInstant returns the instant of the latest event, or -1 when empty.
func (x *XDRelation) LastInstant() service.Instant {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.lastAt
}

// Insert appends a tuple at the given instant. Instants must be
// non-decreasing across all events.
func (x *XDRelation) Insert(at service.Instant, t value.Tuple) error {
	return x.record(at, Insert, t)
}

// Delete removes one occurrence of the tuple at the given instant. Streams
// (infinite XD-Relations) are append-only and reject deletion; deleting a
// tuple that is not present errors.
func (x *XDRelation) Delete(at service.Instant, t value.Tuple) error {
	if x.infinite {
		return fmt.Errorf("stream: %s: streams are append-only", x.Name())
	}
	return x.record(at, Delete, t)
}

// record validates t and appends it as an event of the given kind,
// keeping the current multiset in step.
func (x *XDRelation) record(at service.Instant, kind EventKind, t value.Tuple) error {
	c, err := x.sch.RealRel().Conforms(t)
	if err != nil {
		return fmt.Errorf("stream: %s: %w", x.Name(), err)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if at < x.lastAt {
		return fmt.Errorf("stream: %s: event at instant %d before last instant %d", x.Name(), at, x.lastAt)
	}
	if kind == Delete && !x.current.Has(c) {
		return fmt.Errorf("stream: %s: deleting absent tuple %s", x.Name(), c)
	}
	x.lastAt = at
	ev := Event{At: at, Kind: kind, Tuple: c}
	x.events = append(x.events, ev)
	if !x.infinite {
		value.AddCount(&x.current, c, kind.count())
	}
	if x.onEvent != nil {
		x.onEvent(ev)
	}
	return nil
}

// count is the event's change to its tuple's multiplicity.
func (k EventKind) count() int {
	if k == Delete {
		return -1
	}
	return 1
}

// Current returns the instantaneous multiset now (after all events),
// expanded to a tuple slice. For a stream it is the multiset of the
// retained insert events: its whole history until TrimBefore drops a
// prefix, the tail a window can still reach after.
func (x *XDRelation) Current() []value.Tuple { return x.At(math.MaxInt64) }

// expand lists a counted multiset in the canonical tuple order, each tuple
// repeated by its count.
func expand(m *value.TupleMap[int]) []value.Tuple {
	var out []value.Tuple
	for _, c := range sortedCounts(m) {
		for i := 0; i < c.Count; i++ {
			out = append(out, c.Tuple)
		}
	}
	return out
}

// sortedCounts lists a counted multiset's entries in the canonical tuple
// order (value.Tuple.Compare).
func sortedCounts(m *value.TupleMap[int]) []Counted {
	out := make([]Counted, 0, m.Len())
	counts := m.Values()
	for i, t := range m.Keys() {
		out = append(out, Counted{Tuple: t, Count: counts[i]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// At returns the instantaneous multiset at instant τ. For a finite
// relation at or after its last event that is the current multiset;
// otherwise the retained event log is replayed up to τ, which is
// unreliable for instants before a TrimBefore point. Live evaluation of
// windows uses InsertedIn.
func (x *XDRelation) At(at service.Instant) []value.Tuple {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if !x.infinite && at >= x.lastAt {
		return expand(&x.current)
	}
	var counts value.TupleMap[int]
	for _, ev := range x.events {
		if ev.At > at {
			break
		}
		value.AddCount(&counts, ev.Tuple, ev.Kind.count())
	}
	return expand(&counts)
}

// InsertedIn returns the multiset of tuples inserted in the half-open
// interval (from, to] — exactly the content the window operator W[period]
// needs at instant τ with from = τ−period, to = τ (Section 4.2).
func (x *XDRelation) InsertedIn(from, to service.Instant) []value.Tuple {
	return x.tuplesIn(from, to, Insert)
}

// DeletedIn returns the multiset of tuples deleted in (from, to].
func (x *XDRelation) DeletedIn(from, to service.Instant) []value.Tuple {
	return x.tuplesIn(from, to, Delete)
}

// tuplesIn lists the tuples of the events of one kind in (from, to].
func (x *XDRelation) tuplesIn(from, to service.Instant, kind EventKind) []value.Tuple {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []value.Tuple
	for _, ev := range x.eventsInLocked(from, to) {
		if ev.Kind == kind {
			out = append(out, ev.Tuple)
		}
	}
	return out
}

// EventsIn returns the events (inserts AND deletes, in log order) recorded
// in (from, to]. This is the delta-emission primitive of the incremental
// evaluator: a consumer that saw the multiset as of `from` reconstructs the
// multiset as of `to` by replaying exactly these events.
func (x *XDRelation) EventsIn(from, to service.Instant) []Event {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return append([]Event(nil), x.eventsInLocked(from, to)...)
}

// eventsInLocked returns the log's own slice of the events in (from, to].
func (x *XDRelation) eventsInLocked(from, to service.Instant) []Event {
	after := func(at service.Instant) int {
		return sort.Search(len(x.events), func(i int) bool { return x.events[i].At > at })
	}
	i, j := after(from), after(to)
	return x.events[i:max(i, j)]
}

// TrimBefore drops events at instants < before, bounding the log for
// long-running streams. A finite relation's current multiset is
// unaffected; a stream's Current() shrinks to the retained tail. At()
// becomes unreliable for instants before the trim point.
func (x *XDRelation) TrimBefore(before service.Instant) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.events), func(i int) bool { return x.events[i].At >= before })
	if i == 0 {
		return
	}
	if 2*i >= len(x.events) {
		// Dropping at least half: compact into a fresh array so the dead
		// prefix is released to the collector.
		x.events = append([]Event(nil), x.events[i:]...)
		return
	}
	// Small trim (the steady per-tick case): advance the slice in O(1).
	// The dead prefix stays referenced until the next compaction or until
	// append outgrows the backing array, which copies only the live tail —
	// amortized O(1) per event instead of a full copy per tick.
	x.events = x.events[i:]
}

// EventCount returns the number of retained events.
func (x *XDRelation) EventCount() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.events)
}

// SetOnEvent installs (or, with nil, removes) the event observer. The
// callback runs with the relation lock held, in event-log order.
func (x *XDRelation) SetOnEvent(fn func(Event)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.onEvent = fn
}

// Counted is one (tuple, multiplicity) pair of the current multiset, used
// by checkpoint snapshots.
type Counted struct {
	Tuple value.Tuple
	Count int
}

// StateSnapshot copies the relation's full durable state: the retained
// event log, the current multiset, and the last event instant. A stream
// has no current multiset (its retained log is all its state), so its
// current is nil.
func (x *XDRelation) StateSnapshot() (events []Event, current []Counted, lastAt service.Instant) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	events = append([]Event(nil), x.events...)
	if !x.infinite {
		current = sortedCounts(&x.current)
	}
	return events, current, x.lastAt
}

// RestoreState replaces the relation's state with a snapshot previously
// taken by StateSnapshot (checkpoint recovery). The snapshot is trusted:
// tuples were validated when first inserted. A stream ignores current, so
// snapshots that still carry a stream's full insertion history restore to
// the retained log alone.
func (x *XDRelation) RestoreState(events []Event, current []Counted, lastAt service.Instant) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.events = append([]Event(nil), events...)
	x.current.Clear()
	if !x.infinite {
		for _, c := range current {
			x.current.Put(c.Tuple, c.Count)
		}
	}
	x.lastAt = lastAt
}
