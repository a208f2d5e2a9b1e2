package algebra_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

var allAggs = []algebra.AggSpec{
	{Func: algebra.Count, As: "n"},
	{Func: algebra.Count, Attr: "temperature", As: "readings"},
	{Func: algebra.Sum, Attr: "temperature", As: "total"},
	{Func: algebra.Mean, Attr: "temperature", As: "avg"},
	{Func: algebra.Min, Attr: "temperature", As: "low"},
	{Func: algebra.Max, Attr: "temperature", As: "high"},
}

// genAwkwardReading draws temperatures from the corners where float
// aggregation goes wrong when it depends on order: signed zeros, NaNs of
// both signs, infinities, values whose sum overflows halfway, subnormals,
// and NULL.
func genAwkwardReading(rng *rand.Rand) value.Tuple {
	temps := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000000),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0.1, 0.2, -0.3, 1e308, 1.0 / 3,
	}
	temp := value.NewNull()
	if i := rng.Intn(len(temps) + 1); i < len(temps) {
		temp = value.NewReal(temps[i])
	}
	return value.Tuple{
		value.NewService(fmt.Sprintf("s%02d", rng.Intn(12))),
		value.NewString([]string{"office", "roof"}[rng.Intn(2)]),
		temp,
	}
}

// TestDeltaAggregateAwkwardFloats: with values on which naive float
// accumulation is order-sensitive, the delta operator (which sees members
// arrive and leave in history order) still matches the one-shot operator
// bit for bit, and the one-shot result does not depend on tuple order.
func TestDeltaAggregateAwkwardFloats(t *testing.T) {
	groupBy := []string{"location"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op, err := algebra.NewDeltaAggregate(paperenv.TemperaturesSchema(), groupBy, allAggs)
		if err != nil {
			t.Fatal(err)
		}
		w := newWorld(paperenv.TemperaturesSchema(), rng, genAwkwardReading)
		out := map[string]value.Tuple{}
		for step := 0; step < deltaSteps; step++ {
			d, err := op.Apply(w.step())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			fold(t, out, d, seed, step)
			rel := w.relation()
			want, err := algebra.Aggregate(rel, groupBy, allAggs)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, op.Schema(), out, want, seed, step)

			tuples := rel.Tuples()
			rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
			shuffled, err := algebra.Aggregate(algebra.MustNew(rel.Schema(), tuples), groupBy, allAggs)
			if err != nil {
				t.Fatal(err)
			}
			if !shuffled.EqualContents(want) {
				t.Fatalf("seed %d step %d: one-shot result depends on tuple order\n%s\nvs\n%s",
					seed, step, shuffled.Table(), want.Table())
			}
		}
	}
}

func reading(sensor, loc string, temp float64) value.Tuple {
	return value.Tuple{value.NewService(sensor), value.NewString(loc), value.NewReal(temp)}
}

// TestDeltaAggregateUnderflow: deletes the operator cannot account for
// are errors, not silent no-ops.
func TestDeltaAggregateUnderflow(t *testing.T) {
	for _, tc := range []struct {
		name string
		del  value.Tuple
	}{
		{"absent group", reading("s01", "roof", 19)},
		{"non-member of a present group", reading("s02", "office", 19)},
		{"same sensor, other value", reading("s01", "office", 20)},
	} {
		op, err := algebra.NewDeltaAggregate(paperenv.TemperaturesSchema(), []string{"location"}, allAggs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.Apply(algebra.Delta{Ins: []value.Tuple{reading("s01", "office", 19)}}); err != nil {
			t.Fatal(err)
		}
		_, err = op.Apply(algebra.Delta{Del: []value.Tuple{tc.del}})
		if err == nil || !strings.Contains(err.Error(), "delta aggregate underflow") {
			t.Fatalf("%s: err = %v, want delta aggregate underflow", tc.name, err)
		}
	}
}

// TestDeltaAggregateDuplicateInsert: the operand is a set, so inserting a
// present member again changes no aggregate.
func TestDeltaAggregateDuplicateInsert(t *testing.T) {
	op, err := algebra.NewDeltaAggregate(paperenv.TemperaturesSchema(), []string{"location"}, allAggs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := reading("s01", "office", 19), reading("s02", "office", 23)
	first, err := op.Apply(algebra.Delta{Ins: []value.Tuple{a, b, a}})
	if err != nil {
		t.Fatal(err)
	}
	want := value.Tuple{value.NewString("office"), value.NewInt(2), value.NewInt(2),
		value.NewReal(42), value.NewReal(21), value.NewReal(19), value.NewReal(23)}
	if len(first.Ins) != 1 || len(first.Del) != 0 || !first.Ins[0].Identical(want) {
		t.Fatalf("first apply = %+v, want one insert of %s", first, want)
	}
	again, err := op.Apply(algebra.Delta{Ins: []value.Tuple{b}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Fatalf("re-inserting a member emitted %+v", again)
	}
	// One delete removes the member entirely: a double count would leave
	// it behind.
	gone, err := op.Apply(algebra.Delta{Del: []value.Tuple{a}})
	if err != nil {
		t.Fatal(err)
	}
	want = value.Tuple{value.NewString("office"), value.NewInt(1), value.NewInt(1),
		value.NewReal(23), value.NewReal(23), value.NewReal(23), value.NewReal(23)}
	if len(gone.Ins) != 1 || !gone.Ins[0].Identical(want) {
		t.Fatalf("after delete = %+v, want insert of %s", gone, want)
	}
}

// ---------------------------------------------------------------------------
// Per-change cost: one insert plus one delete into a warm group, in the
// shape of the rollup workload (mean, max(seq), count(*) per location over
// a sliding window, so the oldest reading leaves as a new one arrives).

var rollupSchema = schema.MustExtended("readings", []schema.ExtAttr{
	{Attribute: schema.Attribute{Name: "location", Type: value.String}},
	{Attribute: schema.Attribute{Name: "temperature", Type: value.Real}},
	{Attribute: schema.Attribute{Name: "seq", Type: value.Int}},
}, nil)

// windowGroup is a DeltaAggregate holding one group of size members, fed
// like a sliding window.
type windowGroup struct {
	op       *algebra.DeltaAggregate
	ring     []value.Tuple // ring[seq%size] is the member with that seq
	next     int64
	ins, del []value.Tuple
}

func newWindowGroup(tb testing.TB, size int) *windowGroup {
	op, err := algebra.NewDeltaAggregate(rollupSchema, []string{"location"}, []algebra.AggSpec{
		{Func: algebra.Mean, Attr: "temperature", As: "mean_temperature"},
		{Func: algebra.Max, Attr: "seq", As: "max_seq"},
		{Func: algebra.Count, As: "count"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := &windowGroup{op: op, ring: make([]value.Tuple, size), ins: make([]value.Tuple, 1), del: make([]value.Tuple, 1)}
	for i := range w.ring {
		w.ring[i] = w.reading()
	}
	if _, err := op.Apply(algebra.Delta{Ins: w.ring}); err != nil {
		tb.Fatal(err)
	}
	return w
}

// reading returns the next reading. Sequence numbers start at 10^9 so
// every tuple key has the same length whatever the group size: key length
// decides how often building a key reallocates.
func (w *windowGroup) reading() value.Tuple {
	seq := w.next
	w.next++
	return value.Tuple{value.NewString("loc00"), value.NewReal(15 + float64(seq%97)/10), value.NewInt(1e9 + seq)}
}

// slide inserts the next reading and deletes the oldest.
func (w *windowGroup) slide(tb testing.TB) {
	i := int(w.next % int64(len(w.ring)))
	w.del[0] = w.ring[i]
	w.ring[i] = w.reading()
	w.ins[0] = w.ring[i]
	d, err := w.op.Apply(algebra.Delta{Ins: w.ins, Del: w.del})
	if err != nil || len(d.Ins) != 1 || len(d.Del) != 1 {
		tb.Fatalf("slide: %+v, %v", d, err)
	}
}

var windowGroupSizes = []int{64, 1024, 16384}

func BenchmarkDeltaAggregate(b *testing.B) {
	for _, size := range windowGroupSizes {
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			w := newWindowGroup(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.slide(b)
			}
		})
	}
}

// TestDeltaAggregateAllocsIndependentOfGroupSize measures per-change cost
// without timing: allocations per insert+delete must not depend on how
// many members the group holds.
func TestDeltaAggregateAllocsIndependentOfGroupSize(t *testing.T) {
	var allocs []float64
	for _, size := range windowGroupSizes {
		w := newWindowGroup(t, size)
		allocs = append(allocs, testing.AllocsPerRun(200, func() { w.slide(t) }))
	}
	for i := range allocs {
		if allocs[i] != allocs[0] {
			t.Fatalf("allocs per change by group size %v = %v, want equal", windowGroupSizes, allocs)
		}
	}
}
