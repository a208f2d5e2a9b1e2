package algebra

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refSum is the reference for exactSum: the exact sum of the finite
// values as a math/big.Float (4096 bits hold any float64 sum of up to
// 2^1998 terms without rounding), rounded once to float64. Non-finite
// inputs follow IEEE 754: any NaN, or both infinities, give NaN. An exact
// zero is +0 by definition.
func refSum(xs []float64) float64 {
	var posInf, negInf bool
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			return math.NaN()
		case math.IsInf(x, 1):
			posInf = true
		case math.IsInf(x, -1):
			negInf = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case posInf && negInf:
		return math.NaN()
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	case acc.Sign() == 0:
		return 0
	}
	f, _ := acc.Float64()
	return f
}

func sumOf(xs []float64) float64 {
	var s exactSum
	for _, x := range xs {
		s.update(x, 1)
	}
	return s.value()
}

func requireSame(t *testing.T, got, want float64, what string, xs []float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), want %v (%#x)\ninputs %v",
			what, got, math.Float64bits(got), want, math.Float64bits(want), xs)
	}
}

// genSumValue draws from the awkward corners of float64: ordinary
// readings, arbitrary bit patterns, values near MaxFloat64, subnormals,
// signed zeros and (rarely) infinities and NaN.
func genSumValue(rng *rand.Rand, specials bool) float64 {
	sign := float64(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(10) {
	case 0, 1:
		return 15 + rng.Float64()*10
	case 2:
		return float64(rng.Intn(40)) / 3
	case 3:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 4:
		return sign * math.Float64frombits(math.Float64bits(math.MaxFloat64)-uint64(rng.Intn(4)))
	case 5:
		return sign * math.Float64frombits(rng.Uint64()&(1<<52-1)) // subnormal
	case 6:
		return sign * math.SmallestNonzeroFloat64 * float64(rng.Intn(3)+1)
	case 7:
		return sign * math.Ldexp(1, rng.Intn(2098)-1074)
	case 8:
		return math.Copysign(0, sign)
	}
	if !specials {
		return sign
	}
	switch rng.Intn(3) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	}
	return math.NaN()
}

func TestExactSumEdges(t *testing.T) {
	max, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	ulpMax := math.Ldexp(1, 971)
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"intermediate overflow", []float64{max, max, -max}, max},
		{"intermediate negative overflow", []float64{-max, -max, max, max, -max}, -max},
		{"true overflow", []float64{max, max}, math.Inf(1)},
		{"overflow at the half-ulp tie", []float64{max, ulpMax / 2}, math.Inf(1)},
		{"below the half-ulp tie", []float64{max, ulpMax / 4}, max},
		{"tie to even stays", []float64{1, math.Ldexp(1, -53)}, 1},
		{"sticky breaks the tie", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -105)}, 1 + math.Ldexp(1, -52)},
		{"tie to even rounds up", []float64{1 + math.Ldexp(1, -52), math.Ldexp(1, -53)}, 1 + math.Ldexp(1, -51)},
		{"subnormals add exactly", []float64{tiny, tiny, tiny}, 3 * tiny},
		{"subnormal to normal", []float64{math.Ldexp(1, -1023), math.Ldexp(1, -1023)}, math.Ldexp(1, -1022)},
		{"catastrophic cancellation", []float64{1e308, 1, -1e308}, 1},
		{"classic 0.1s", []float64{0.1, 0.1, 0.1, -0.3}, refSum([]float64{0.1, 0.1, 0.1, -0.3})},
		{"negative zeros sum to +0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"cancellation sums to +0", []float64{-2.5, 2.5}, 0},
		{"no nonzero sum rounds to zero", []float64{tiny, -2 * tiny}, -tiny},
		{"empty", nil, 0},
		{"inf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"both infinities", []float64{math.Inf(-1), math.Inf(1)}, math.NaN()},
		{"nan", []float64{math.NaN(), 1}, math.NaN()},
	} {
		requireSame(t, sumOf(tc.xs), tc.want, tc.name, tc.xs)
		requireSame(t, refSum(tc.xs), tc.want, tc.name+" (reference)", tc.xs)
	}
}

// TestExactSumRemoveRestores: removing non-finite values restores the
// finite sum, and removing everything leaves an all-zero accumulator.
func TestExactSumRemoveRestores(t *testing.T) {
	var s exactSum
	for _, x := range []float64{math.MaxFloat64, 3.25, math.NaN(), math.Inf(1), math.Inf(-1), -1e-310} {
		s.update(x, 1)
	}
	if !math.IsNaN(s.value()) {
		t.Fatalf("with NaN and both infinities: %v, want NaN", s.value())
	}
	s.update(math.NaN(), -1)
	s.update(math.Inf(-1), -1)
	if v := s.value(); !math.IsInf(v, 1) {
		t.Fatalf("with +Inf left: %v", v)
	}
	s.update(math.Inf(1), -1)
	s.update(math.MaxFloat64, -1)
	want := refSum([]float64{3.25, -1e-310})
	requireSame(t, s.value(), want, "restored finite sum", nil)
	s.update(-1e-310, -1)
	s.update(3.25, -1)
	if s != (exactSum{}) {
		t.Fatalf("accumulator not empty after removing every value: %+v", s)
	}
}

// TestExactSumOrderIndependent: over random multisets, every permutation
// gives the reference's bits.
func TestExactSumOrderIndependent(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, rng.Intn(40))
		for i := range xs {
			xs[i] = genSumValue(rng, seed%4 == 0)
		}
		want := refSum(xs)
		for p := 0; p < 6; p++ {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			requireSame(t, sumOf(xs), want, "permutation", xs)
		}
	}
}

// TestExactSumInterleavings: random interleavings of inserts and deletes
// match the reference over the live multiset after every step.
func TestExactSumInterleavings(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s exactSum
		var live []float64
		for step := 0; step < 80; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				s.update(live[i], -1)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				x := genSumValue(rng, seed%4 == 0)
				s.update(x, 1)
				live = append(live, x)
			}
			requireSame(t, s.value(), refSum(live), "interleaving", live)
		}
	}
}

// FuzzExactSum feeds arbitrary float64 bit patterns through inserts and
// deletes of live values; after every step the sum must equal the
// reference over the live multiset, and summing the survivors afresh in
// reverse order must give the same bits.
func FuzzExactSum(f *testing.F) {
	seed := func(ops ...uint64) []byte {
		var b []byte
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint64(b, op)
		}
		return b
	}
	max := math.Float64bits(math.MaxFloat64)
	f.Add(seed(max, max, max|1<<63))
	f.Add(seed(math.Float64bits(math.Inf(1)), 1, math.Float64bits(0.1), 3))
	f.Add(seed(1, 2, 3, 0x8000000000000001, 4))
	f.Add(seed(math.Float64bits(math.NaN()), 1))
	f.Add(seed(max, max, 0xdead, max|1<<63)) // the third word deletes a live value
	f.Fuzz(func(t *testing.T, data []byte) {
		var s exactSum
		var live []float64
		for len(data) >= 8 && len(live) < 64 {
			w := binary.LittleEndian.Uint64(data)
			data = data[8:]
			// Words whose low 16 bits are 0xdead delete a live value
			// instead; everything else is inserted as a float64.
			if w&0xffff == 0xdead && len(live) > 0 {
				i := int(w>>16) % len(live)
				s.update(live[i], -1)
				live = append(live[:i], live[i+1:]...)
			} else {
				x := math.Float64frombits(w)
				s.update(x, 1)
				live = append(live, x)
			}
			requireSame(t, s.value(), refSum(live), "fuzz step", live)
		}
		rev := make([]float64, len(live))
		for i, x := range live {
			rev[len(live)-1-i] = x
		}
		requireSame(t, sumOf(rev), s.value(), "fuzz reverse order", live)
	})
}
