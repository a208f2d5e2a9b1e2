package stream_test

import (
	"testing"

	"serena/internal/paperenv"
	"serena/internal/service"
	"serena/internal/stream"
	"serena/internal/value"
)

func reading(ref, loc string, temp float64) value.Tuple {
	return value.Tuple{value.NewService(ref), value.NewString(loc), value.NewReal(temp)}
}

func TestFiniteInsertDelete(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	row := value.Tuple{value.NewString("Carla"), value.NewString("office")}
	if err := x.Insert(0, row); err != nil {
		t.Fatal(err)
	}
	if got := x.Current(); len(got) != 1 {
		t.Fatalf("Current = %v", got)
	}
	if err := x.Delete(1, row); err != nil {
		t.Fatal(err)
	}
	if got := x.Current(); len(got) != 0 {
		t.Fatalf("Current after delete = %v", got)
	}
	if err := x.Delete(2, row); err == nil {
		t.Fatal("deleting absent tuple accepted")
	}
	if x.LastInstant() != 1 {
		t.Fatalf("LastInstant = %d", x.LastInstant())
	}
}

func TestMultisetSemantics(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	row := value.Tuple{value.NewString("Carla"), value.NewString("office")}
	_ = x.Insert(0, row)
	_ = x.Insert(0, row)
	if got := x.Current(); len(got) != 2 {
		t.Fatalf("multiset Current = %d tuples, want 2", len(got))
	}
	_ = x.Delete(1, row)
	if got := x.Current(); len(got) != 1 {
		t.Fatalf("after one delete = %d tuples, want 1", len(got))
	}
}

func TestStreamAppendOnly(t *testing.T) {
	x := stream.NewInfinite(paperenv.TemperaturesSchema())
	if !x.Infinite() {
		t.Fatal("Infinite flag lost")
	}
	if err := x.Insert(0, reading("sensor01", "corridor", 20)); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(1, reading("sensor01", "corridor", 20)); err == nil {
		t.Fatal("stream deletion accepted")
	}
}

func TestMonotonicInstants(t *testing.T) {
	x := stream.NewInfinite(paperenv.TemperaturesSchema())
	_ = x.Insert(5, reading("s", "l", 1))
	if err := x.Insert(4, reading("s", "l", 2)); err == nil {
		t.Fatal("out-of-order insert accepted")
	}
	// Same instant is fine.
	if err := x.Insert(5, reading("s", "l", 3)); err != nil {
		t.Fatal(err)
	}
}

func TestConformance(t *testing.T) {
	x := stream.NewInfinite(paperenv.TemperaturesSchema())
	if err := x.Insert(0, value.Tuple{value.NewInt(1)}); err == nil {
		t.Fatal("ill-typed tuple accepted")
	}
}

func TestInsertedInWindowSemantics(t *testing.T) {
	x := stream.NewInfinite(paperenv.TemperaturesSchema())
	for i := 0; i < 10; i++ {
		_ = x.Insert(service.Instant(i), reading("s", "l", float64(i)))
	}
	// W[1] at τ=5: inserts in (4,5] → exactly the reading at instant 5.
	got := x.InsertedIn(4, 5)
	if len(got) != 1 || got[0][2].Real() != 5 {
		t.Fatalf("W[1]@5 = %v", got)
	}
	// W[3] at τ=5: instants 3,4,5.
	if got := x.InsertedIn(2, 5); len(got) != 3 {
		t.Fatalf("W[3]@5 has %d tuples, want 3", len(got))
	}
	// Window entirely before data.
	if got := x.InsertedIn(-5, -1); len(got) != 0 {
		t.Fatalf("empty window = %v", got)
	}
	// Window covering everything.
	if got := x.InsertedIn(-1, 100); len(got) != 10 {
		t.Fatalf("full window = %d tuples", len(got))
	}
}

func TestDeletedIn(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	row := value.Tuple{value.NewString("Carla"), value.NewString("office")}
	_ = x.Insert(0, row)
	_ = x.Delete(3, row)
	if got := x.DeletedIn(2, 3); len(got) != 1 {
		t.Fatalf("DeletedIn = %v", got)
	}
	if got := x.DeletedIn(3, 9); len(got) != 0 {
		t.Fatalf("DeletedIn after = %v", got)
	}
}

func TestAtReplay(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	a := value.Tuple{value.NewString("Carla"), value.NewString("office")}
	b := value.Tuple{value.NewString("Nicolas"), value.NewString("corridor")}
	_ = x.Insert(0, a)
	_ = x.Insert(2, b)
	_ = x.Delete(4, a)
	if got := x.At(1); len(got) != 1 || got[0][0].Str() != "Carla" {
		t.Fatalf("At(1) = %v", got)
	}
	if got := x.At(3); len(got) != 2 {
		t.Fatalf("At(3) = %v", got)
	}
	if got := x.At(4); len(got) != 1 || got[0][0].Str() != "Nicolas" {
		t.Fatalf("At(4) = %v", got)
	}
	if got := x.At(-1); len(got) != 0 {
		t.Fatalf("At(-1) = %v", got)
	}
}

func TestTrimBefore(t *testing.T) {
	x := stream.NewInfinite(paperenv.TemperaturesSchema())
	for i := 0; i < 100; i++ {
		_ = x.Insert(service.Instant(i), reading("s", "l", float64(i)))
	}
	x.TrimBefore(90)
	if x.EventCount() != 10 {
		t.Fatalf("EventCount = %d, want 10", x.EventCount())
	}
	// Recent windows still work.
	if got := x.InsertedIn(94, 99); len(got) != 5 {
		t.Fatalf("window after trim = %d tuples", len(got))
	}
	// A stream keeps no multiset beside its log: Current is the retained
	// tail, so the trim shrinks it to the last ten readings.
	got := x.Current()
	if len(got) != 10 {
		t.Fatalf("Current after trim = %d, want 10", len(got))
	}
	for _, r := range got {
		if r[2].Real() < 90 {
			t.Fatalf("Current after trim holds trimmed reading %v", r)
		}
	}
	// A finite relation's current multiset is unaffected by the trim.
	f := stream.NewFinite(paperenv.SurveillanceSchema())
	_ = f.Insert(1, value.Tuple{value.NewString("Carla"), value.NewString("office")})
	_ = f.Insert(5, value.Tuple{value.NewString("Nicolas"), value.NewString("corridor")})
	f.TrimBefore(5)
	if got := f.Current(); len(got) != 2 {
		t.Fatalf("finite Current after trim = %d, want 2", len(got))
	}
}

// TestEventsIn pins the incremental evaluator's delta-emission primitive:
// EventsIn(from, to] returns inserts AND deletes in log order, and replaying
// them over the multiset as of `from` reconstructs the multiset as of `to`.
func TestEventsIn(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	carla := value.Tuple{value.NewString("Carla"), value.NewString("office")}
	nico := value.Tuple{value.NewString("Nicolas"), value.NewString("corridor")}
	_ = x.Insert(0, carla)
	_ = x.Insert(1, nico)
	_ = x.Insert(1, carla) // multiplicity 2
	_ = x.Delete(2, carla)
	_ = x.Delete(3, carla)

	// (0, 2]: nico in, carla in, carla out — in log order.
	evs := x.EventsIn(0, 2)
	if len(evs) != 3 {
		t.Fatalf("EventsIn(0,2] = %d events, want 3", len(evs))
	}
	wantKinds := []stream.EventKind{stream.Insert, stream.Insert, stream.Delete}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("event %d kind = %v, want %v (events %v)", i, ev.Kind, wantKinds[i], evs)
		}
	}

	// Replaying (from, to] over At(from) must reconstruct At(to), for every
	// interval.
	for from := service.Instant(-1); from <= 3; from++ {
		for to := from; to <= 3; to++ {
			counts := map[string]int{}
			for _, tu := range x.At(from) {
				counts[tu.Key()]++
			}
			for _, ev := range x.EventsIn(from, to) {
				if ev.Kind == stream.Insert {
					counts[ev.Tuple.Key()]++
				} else {
					counts[ev.Tuple.Key()]--
				}
			}
			want := map[string]int{}
			for _, tu := range x.At(to) {
				want[tu.Key()]++
			}
			for k, c := range counts {
				if c != want[k] {
					t.Fatalf("replay (%d,%d]: key %s count %d, want %d", from, to, k, c, want[k])
				}
			}
			for k, c := range want {
				if c != counts[k] {
					t.Fatalf("replay (%d,%d]: key %s missing, want %d", from, to, k, c)
				}
			}
		}
	}

	// Empty and out-of-range intervals.
	if evs := x.EventsIn(3, 10); len(evs) != 0 {
		t.Fatalf("EventsIn past the log = %v", evs)
	}
}

// The two tuples share one Tuple.Key string (its 0x1f separator is not
// escaped) but are distinct, so deleting the one never inserted must fail
// and leave the other in place.
func TestDeleteOfKeyTwinErrors(t *testing.T) {
	x := stream.NewFinite(paperenv.SurveillanceSchema())
	inserted := value.Tuple{value.NewString("a\x1fsb"), value.NewString("c")}
	twin := value.Tuple{value.NewString("a"), value.NewString("b\x1fsc")}
	if inserted.Key() != twin.Key() {
		t.Fatal("fixture: the tuples must share a Key string")
	}
	if err := x.Insert(0, inserted); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(1, twin); err == nil {
		t.Fatal("deleting a never-inserted tuple succeeded")
	}
	if cur := x.Current(); len(cur) != 1 || !cur[0].Identical(inserted) {
		t.Fatalf("current = %v, want only the inserted tuple", cur)
	}
}
