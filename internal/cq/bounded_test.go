package cq_test

import (
	"testing"

	"serena/internal/cq"
	"serena/internal/query"
	"serena/internal/schema"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

// checkpointEveryTick is a Durability that logs nothing and asks for a
// checkpoint at every commit.
type checkpointEveryTick struct{}

func (checkpointEveryTick) AttachRelation(*stream.XDRelation)        {}
func (checkpointEveryTick) BeginTick(service.Instant) error          { return nil }
func (checkpointEveryTick) CommitTick(service.Instant) (bool, error) { return true, nil }
func (checkpointEveryTick) ActiveIntent(string, int, string, string, value.Tuple, service.Instant) error {
	return nil
}
func (checkpointEveryTick) ActiveResult(string, int, string, string, value.Tuple, service.Instant, bool, []value.Tuple) error {
	return nil
}

func readingsSchema() *schema.Extended {
	return schema.MustExtended("readings", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "n", Type: value.Int}},
	}, nil)
}

// TestStreamStateBounded runs a windowed base stream, an infinite derived
// S[·] output and a finite derived W[1] output for N and then 4N ticks,
// checkpointing every tick. Everything each keeps — its Current view, its
// event log and its checkpoint record — must be the same size at both
// lengths: a window reaches a fixed number of instants, and a derived
// output with no RETAIN, finite or not, keeps DefaultDerivedRetention of
// them.
func TestStreamStateBounded(t *testing.T) {
	const perTick = 3
	n := int(cq.DefaultDerivedRetention) + 44
	exec := cq.NewExecutor(service.NewRegistry())
	readings := stream.NewInfinite(readingsSchema())
	if err := exec.AddRelation(readings); err != nil {
		t.Fatal(err)
	}
	exec.AddSource(func(at service.Instant) error {
		for i := 0; i < perTick; i++ {
			if err := readings.Insert(at, value.Tuple{value.NewInt(int64(at)*perTick + int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := exec.Register("recent", query.NewWindow(query.NewBase("readings"), 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Register("feed", query.NewStream(
		query.NewWindow(query.NewBase("readings"), 1), query.StreamInsertion)); err != nil {
		t.Fatal(err)
	}
	// The whole window content churns every tick: perTick inserts and
	// perTick deletes.
	if _, err := exec.Register("latest", query.NewWindow(query.NewBase("readings"), 1)); err != nil {
		t.Fatal(err)
	}
	var last cq.CheckpointState
	exec.SetDurability(checkpointEveryTick{})
	exec.OnCheckpoint(func(st cq.CheckpointState) error { last = st; return nil })

	type size struct{ current, events, checkpoint int }
	measure := func(name string) size {
		t.Helper()
		x, ok := exec.Relation(name)
		if !ok {
			t.Fatalf("no relation %q", name)
		}
		s := size{current: len(x.Current()), events: x.EventCount(), checkpoint: -1}
		for _, rs := range last.Relations {
			if rs.Name == name {
				s.checkpoint = len(rs.Events) + len(rs.Current)
			}
		}
		if s.checkpoint < 0 {
			t.Fatalf("checkpoint at %d has no %q record", last.At, name)
		}
		return s
	}
	if err := exec.RunUntil(service.Instant(n - 1)); err != nil {
		t.Fatal(err)
	}
	names := []string{"readings", "feed", "latest"}
	short := map[string]size{}
	for _, name := range names {
		short[name] = measure(name)
	}
	if err := exec.RunUntil(service.Instant(4*n - 1)); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if long := measure(name); long != short[name] || long.events == 0 {
			t.Errorf("%s after %d ticks = %+v, after %d = %+v; want equal and non-empty",
				name, n, short[name], 4*n, long)
		}
	}
	// The window reaches 4 instants (plus one of slack); the derived stream
	// keeps DefaultDerivedRetention instants.
	if got, want := short["readings"].events, 6*perTick; got != want {
		t.Errorf("readings retains %d events, want %d", got, want)
	}
	if got, want := short["feed"].events, int(cq.DefaultDerivedRetention)*perTick; got != want {
		t.Errorf("feed retains %d events, want %d", got, want)
	}
	if got, want := short["latest"].events, int(cq.DefaultDerivedRetention)*2*perTick; got != want {
		t.Errorf("latest retains %d events, want %d", got, want)
	}
	if got := short["latest"].current; got != perTick {
		t.Errorf("latest holds %d tuples, want %d", got, perTick)
	}
}

// TestRestoreIgnoresStreamCurrent restores a checkpoint that carries a
// stream's full insertion history in RelationState.Current, as checkpoints
// written before streams stopped keeping one do. The stream's state is its
// retained log alone: Current equals the retained insert events.
func TestRestoreIgnoresStreamCurrent(t *testing.T) {
	exec := cq.NewExecutor(service.NewRegistry())
	readings := stream.NewInfinite(readingsSchema())
	if err := exec.AddRelation(readings); err != nil {
		t.Fatal(err)
	}
	tuple := func(i int) value.Tuple { return value.Tuple{value.NewInt(int64(i))} }
	rs := cq.RelationState{Name: "readings", LastAt: 9}
	for i := 0; i < 10; i++ {
		rs.Current = append(rs.Current, stream.Counted{Tuple: tuple(i), Count: 1})
		if i >= 8 {
			rs.Events = append(rs.Events, stream.Event{At: service.Instant(i), Kind: stream.Insert, Tuple: tuple(i)})
		}
	}
	if err := exec.Restore(cq.CheckpointState{At: 9, Relations: []cq.RelationState{rs}}); err != nil {
		t.Fatal(err)
	}
	got := readings.Current()
	if len(got) != 2 || !got[0].Identical(tuple(8)) || !got[1].Identical(tuple(9)) {
		t.Fatalf("Current after restore = %v, want the retained events [8] [9]", got)
	}
	if _, current, _ := readings.StateSnapshot(); current != nil {
		t.Fatalf("stream snapshot carries a current multiset: %v", current)
	}
}
