package algebra_test

import (
	"testing"

	"serena/internal/algebra"
	"serena/internal/schema"
	"serena/internal/value"
)

// Tuple.Key joins coordinate keys with an unescaped 0x1f, so these two
// distinct tuples share one key string. Every operator must still keep
// them apart: tuple identity is value.Tuple.Identical.
var (
	twinA = value.Tuple{value.NewString("a\x1fsb"), value.NewString("c")}
	twinB = value.Tuple{value.NewString("a"), value.NewString("b\x1fsc")}
)

func TestTwinsShareAKeyString(t *testing.T) {
	if twinA.Key() != twinB.Key() || twinA.Identical(twinB) {
		t.Fatal("fixture: the twins must be distinct tuples with equal Key strings")
	}
}

// twinSchema is (x, y, extra...) with every attribute a STRING.
func twinSchema(name string, extra ...string) *schema.Extended {
	attrs := []schema.ExtAttr{}
	for _, n := range append([]string{"x", "y"}, extra...) {
		attrs = append(attrs, schema.ExtAttr{Attribute: schema.Attribute{Name: n, Type: value.String}})
	}
	return schema.MustExtended(name, attrs, nil)
}

// withCol appends one more string coordinate to a twin.
func withCol(t value.Tuple, s string) value.Tuple {
	return t.Concat(value.Tuple{value.NewString(s)})
}

func TestNewKeepsKeyTwins(t *testing.T) {
	r := algebra.MustNew(twinSchema("r"), []value.Tuple{twinA, twinB})
	if r.Len() != 2 || !r.Contains(twinA) || !r.Contains(twinB) {
		t.Fatalf("New kept %d of the two twins:\n%s", r.Len(), r.Table())
	}
}

// twinJoinSides returns one relation per twin, sharing only x and y.
func twinJoinSides() (l, r *algebra.XRelation) {
	return algebra.MustNew(twinSchema("l", "lv"), []value.Tuple{withCol(twinA, "left")}),
		algebra.MustNew(twinSchema("r", "rv"), []value.Tuple{withCol(twinB, "right")})
}

func TestJoinDoesNotMatchKeyTwins(t *testing.T) {
	l, r := twinJoinSides()
	out, err := algebra.NaturalJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("NaturalJoin matched rows that agree on no join attribute:\n%s", out.Table())
	}
}

func TestDeltaJoinDoesNotMatchKeyTwins(t *testing.T) {
	l, r := twinJoinSides()
	j, err := algebra.NewDeltaJoin(l.Schema(), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	d, err := j.Apply(algebra.Delta{Ins: l.Tuples()}, algebra.Delta{Ins: r.Tuples()})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("DeltaJoin matched rows that agree on no join attribute: %+v", d)
	}
}

var (
	twinAggs = []algebra.AggSpec{{Func: algebra.Count, As: "n"}}
	twinRows = []value.Tuple{withCol(twinA, "1"), withCol(twinB, "2")}
)

func TestAggregateKeepsKeyTwinGroups(t *testing.T) {
	out, err := algebra.Aggregate(algebra.MustNew(twinSchema("r", "v"), twinRows), []string{"x", "y"}, twinAggs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("Aggregate merged the twins' groups:\n%s", out.Table())
	}
}

func TestDeltaAggregateKeepsKeyTwinGroups(t *testing.T) {
	da, err := algebra.NewDeltaAggregate(twinSchema("r", "v"), []string{"x", "y"}, twinAggs)
	if err != nil {
		t.Fatal(err)
	}
	d, err := da.Apply(algebra.Delta{Ins: twinRows})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ins) != 2 || len(d.Del) != 0 {
		t.Fatalf("DeltaAggregate emitted %d inserts, %d deletes; want 2 groups inserted", len(d.Ins), len(d.Del))
	}
}

func TestDeltaGateCountsKeyTwinsApart(t *testing.T) {
	g := algebra.NewDeltaGate()
	d, err := g.Apply([]value.Tuple{twinA, twinB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ins) != 2 {
		t.Fatalf("gate emitted %d inserts for two distinct tuples", len(d.Ins))
	}
	g.Reset()
	if _, err := g.Apply([]value.Tuple{twinA}, []value.Tuple{twinB}); err == nil {
		t.Fatal("gate let a tuple that never entered leave")
	}
}

func TestDeltaProjectCountsKeyTwinsApart(t *testing.T) {
	p, err := algebra.NewDeltaProject(twinSchema("r", "v"), []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Apply(algebra.Delta{Ins: []value.Tuple{withCol(twinA, "1"), withCol(twinB, "2")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ins) != 2 {
		t.Fatalf("project emitted %d inserts for two distinct projections", len(d.Ins))
	}
	// Removing twinA's only support must delete twinA's projection even
	// though twinB's projection has the same key string.
	d, err = p.Apply(algebra.Delta{Del: []value.Tuple{withCol(twinA, "1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Del) != 1 || !d.Del[0].Identical(twinA) {
		t.Fatalf("project delete = %+v, want the twinA projection", d)
	}
}
