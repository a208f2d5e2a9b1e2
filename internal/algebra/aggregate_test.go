package algebra_test

import (
	"math"
	"testing"

	"serena/internal/algebra"
	"serena/internal/paperenv"
	"serena/internal/schema"
	"serena/internal/value"
)

func readingsRelation(t *testing.T) *algebra.XRelation {
	t.Helper()
	return algebra.MustNew(paperenv.TemperaturesSchema(), []value.Tuple{
		{value.NewService("sensor01"), value.NewString("corridor"), value.NewReal(19)},
		{value.NewService("sensor06"), value.NewString("office"), value.NewReal(21)},
		{value.NewService("sensor07"), value.NewString("office"), value.NewReal(23)},
		{value.NewService("sensor22"), value.NewString("roof"), value.NewReal(15)},
	})
}

func TestAggregateMeanByLocation(t *testing.T) {
	// The paper's Section 1.2 motivating query: mean temperature per
	// location.
	r := readingsRelation(t)
	out, err := algebra.Aggregate(r, []string{"location"},
		[]algebra.AggSpec{{Func: algebra.Mean, Attr: "temperature", As: "avgtemp"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("groups = %d, want 3", out.Len())
	}
	sch := out.Schema()
	if got := sch.Names(); len(got) != 2 || got[0] != "location" || got[1] != "avgtemp" {
		t.Fatalf("schema = %v", got)
	}
	if len(sch.BindingPatterns()) != 0 || sch.RealArity() != 2 {
		t.Fatal("aggregate output must be a plain relation")
	}
	want := map[string]float64{"corridor": 19, "office": 22, "roof": 15}
	li, ai := sch.RealIndex("location"), sch.RealIndex("avgtemp")
	for _, tu := range out.Tuples() {
		if tu[ai].Real() != want[tu[li].Str()] {
			t.Fatalf("mean(%s) = %v, want %v", tu[li].Str(), tu[ai], want[tu[li].Str()])
		}
	}
}

func TestAggregateAllFunctions(t *testing.T) {
	r := readingsRelation(t)
	out, err := algebra.Aggregate(r, nil, []algebra.AggSpec{
		{Func: algebra.Count, Attr: "", As: "n"},
		{Func: algebra.Sum, Attr: "temperature", As: "total"},
		{Func: algebra.Mean, Attr: "temperature", As: "avg"},
		{Func: algebra.Min, Attr: "temperature", As: "lo"},
		{Func: algebra.Max, Attr: "temperature", As: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("global aggregation should yield one row, got %d", out.Len())
	}
	row := out.Tuples()[0]
	if row[0].Int() != 4 || row[1].Real() != 78 || row[2].Real() != 19.5 ||
		row[3].Real() != 15 || row[4].Real() != 23 {
		t.Fatalf("row = %v", row)
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	r := readingsRelation(t)
	out, err := algebra.Aggregate(r, nil, []algebra.AggSpec{
		{Func: algebra.Min, Attr: "location", As: "first"},
		{Func: algebra.Max, Attr: "location", As: "last"},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := out.Tuples()[0]
	if row[0].Str() != "corridor" || row[1].Str() != "roof" {
		t.Fatalf("min/max strings = %v", row)
	}
	if k, _ := out.Schema().TypeOf("first"); k != value.String {
		t.Fatal("textual min keeps its type")
	}
}

// TestAggregateMinMaxTotalOrder: numeric min/max follow IEEE 754
// totalOrder, so signed zeros and NaNs have one extremum whatever the
// order the group's members come in.
func TestAggregateMinMaxTotalOrder(t *testing.T) {
	negZero, negNaN := math.Copysign(0, -1), math.Float64frombits(0xfff8000000000000)
	for _, tc := range []struct {
		xs       []float64
		min, max float64
	}{
		{[]float64{-1, -2.5, 3}, -2.5, 3},
		{[]float64{0, negZero}, negZero, 0},
		{[]float64{-1, negZero, 0, -2.5}, -2.5, 0},
		{[]float64{math.NaN(), math.Inf(1), 5, math.Inf(-1)}, math.Inf(-1), math.NaN()},
		{[]float64{negNaN, math.Inf(-1), 5}, negNaN, 5},
	} {
		sch := schema.MustExtended("m", []schema.ExtAttr{
			{Attribute: schema.Attribute{Name: "id", Type: value.Int}},
			{Attribute: schema.Attribute{Name: "x", Type: value.Real}},
		}, nil)
		for shift := range tc.xs {
			var rows []value.Tuple
			for i := range tc.xs {
				j := (i + shift) % len(tc.xs)
				rows = append(rows, value.Tuple{value.NewInt(int64(j)), value.NewReal(tc.xs[j])})
			}
			out, err := algebra.Aggregate(algebra.MustNew(sch, rows), nil, []algebra.AggSpec{
				{Func: algebra.Min, Attr: "x", As: "lo"},
				{Func: algebra.Max, Attr: "x", As: "hi"},
			})
			if err != nil {
				t.Fatal(err)
			}
			row := out.Tuples()[0]
			if math.Float64bits(row[0].Real()) != math.Float64bits(tc.min) ||
				math.Float64bits(row[1].Real()) != math.Float64bits(tc.max) {
				t.Fatalf("min/max of %v (rotated by %d) = %v, %v; want %v, %v",
					tc.xs, shift, row[0], row[1], tc.min, tc.max)
			}
		}
	}
}

func TestAggregateNullHandling(t *testing.T) {
	sch := schema.MustExtended("m", []schema.ExtAttr{
		{Attribute: schema.Attribute{Name: "g", Type: value.String}},
		{Attribute: schema.Attribute{Name: "x", Type: value.Real}},
	}, nil)
	r := algebra.MustNew(sch, []value.Tuple{
		{value.NewString("a"), value.NewReal(10)},
		{value.NewString("a"), value.NewNull()},
		{value.NewString("b"), value.NewNull()},
	})
	out, err := algebra.Aggregate(r, []string{"g"}, []algebra.AggSpec{
		{Func: algebra.Count, Attr: "", As: "rows"},
		{Func: algebra.Count, Attr: "x", As: "vals"},
		{Func: algebra.Mean, Attr: "x", As: "avg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	byG := map[string]value.Tuple{}
	for _, tu := range out.Tuples() {
		byG[tu[0].Str()] = tu
	}
	a, b := byG["a"], byG["b"]
	if a[1].Int() != 2 || a[2].Int() != 1 || a[3].Real() != 10 {
		t.Fatalf("group a = %v", a)
	}
	if b[1].Int() != 1 || b[2].Int() != 0 || !b[3].IsNull() {
		t.Fatalf("group b = %v (NULL-only group must aggregate to NULL)", b)
	}
}

func TestAggregateValidation(t *testing.T) {
	r := readingsRelation(t)
	cases := []struct {
		name    string
		groupBy []string
		aggs    []algebra.AggSpec
	}{
		{"no aggregates", []string{"location"}, nil},
		{"unknown group attr", []string{"ghost"}, []algebra.AggSpec{{Func: algebra.Count, As: "n"}}},
		{"unknown agg attr", nil, []algebra.AggSpec{{Func: algebra.Sum, Attr: "ghost", As: "s"}}},
		{"non-numeric sum", nil, []algebra.AggSpec{{Func: algebra.Sum, Attr: "location", As: "s"}}},
		{"missing output name", nil, []algebra.AggSpec{{Func: algebra.Count}}},
		{"duplicate output", []string{"location"}, []algebra.AggSpec{{Func: algebra.Count, As: "location"}}},
		{"duplicate group", []string{"location", "location"}, []algebra.AggSpec{{Func: algebra.Count, As: "n"}}},
	}
	for _, c := range cases {
		if _, err := algebra.Aggregate(r, c.groupBy, c.aggs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Virtual grouping attribute rejected.
	sensors := paperenv.Sensors()
	if _, err := algebra.Aggregate(sensors, []string{"temperature"},
		[]algebra.AggSpec{{Func: algebra.Count, As: "n"}}); err == nil {
		t.Error("virtual grouping attribute accepted")
	}
	if _, err := algebra.Aggregate(sensors, nil,
		[]algebra.AggSpec{{Func: algebra.Mean, Attr: "temperature", As: "m"}}); err == nil {
		t.Error("virtual aggregate input accepted")
	}
}

func TestAggregateDeterministicOrder(t *testing.T) {
	r := readingsRelation(t)
	a, _ := algebra.Aggregate(r, []string{"location"},
		[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
	b, _ := algebra.Aggregate(r, []string{"location"},
		[]algebra.AggSpec{{Func: algebra.Count, As: "n"}})
	for i := range a.Tuples() {
		if !a.Tuples()[i].Equal(b.Tuples()[i]) {
			t.Fatal("aggregation order not deterministic")
		}
	}
}

func TestAggFuncParsing(t *testing.T) {
	for _, n := range []string{"count", "sum", "mean", "min", "max"} {
		f, ok := algebra.AggFuncFromString(n)
		if !ok || f.String() != n {
			t.Errorf("AggFuncFromString(%q) broken", n)
		}
	}
	if _, ok := algebra.AggFuncFromString("median"); ok {
		t.Error("unknown aggregate accepted")
	}
}
