package algebra

import (
	"math"
	"math/bits"
)

// exactSum is a fixed-point superaccumulator for float64 sums. Every
// finite float64 is an integer multiple of 2^-1074 (the smallest
// subnormal), so a sum of finite float64 values is an integer in those
// units; exactSum keeps that integer exactly, in two's complement over
// sumWords little-endian 64-bit words. Adding or removing a value touches
// the two words its 53-bit significand lands in plus any carry, so an
// update costs O(1) whatever the number of values summed, and a removal
// undoes its insertion exactly.
//
// value rounds the exact sum to float64 once (round half to even), so the
// result depends only on the multiset of values added, never on their
// order. Infinities and NaNs are counted rather than folded in, so
// removing them restores the finite sum. Consequences worth stating:
//
//   - no intermediate overflow: MaxFloat64 + MaxFloat64 − MaxFloat64 is
//     MaxFloat64; only an exact sum that itself rounds past MaxFloat64
//     gives ±Inf;
//   - no underflow to zero: a nonzero exact sum is at least 2^-1074 in
//     magnitude, which is representable, so it never rounds to ±0;
//   - an exactly zero sum is +0, whatever the signs of the zeros (or of
//     the cancelling values) that produced it.
type exactSum struct {
	w                   [sumWords]uint64
	posInf, negInf, nan int64
}

// sumWords covers 2^-1074 … 2^1024 (2098 bits) plus 77 bits of carry
// headroom and a sign bit: room for 2^77 maximal values.
const sumWords = 34

// update folds f into the sum (by = 1) or takes a previously added f back
// out of it (by = -1).
func (s *exactSum) update(f float64, by int64) {
	switch {
	case math.IsNaN(f):
		s.nan += by
		return
	case math.IsInf(f, 1):
		s.posInf += by
		return
	case math.IsInf(f, -1):
		s.negInf += by
		return
	}
	b := math.Float64bits(f)
	mant := b & (1<<52 - 1)
	exp := uint(b>>52) & 0x7ff
	var off uint // bit position of the significand's LSB, in 2^-1074 units
	if exp != 0 {
		mant |= 1 << 52
		off = exp - 1
	}
	if mant == 0 {
		return // ±0
	}
	i, sh := off>>6, off&63
	lo, hi := mant<<sh, mant>>(64-sh)
	var c uint64
	if (b>>63 != 0) == (by < 0) {
		s.w[i], c = bits.Add64(s.w[i], lo, 0)
		s.w[i+1], c = bits.Add64(s.w[i+1], hi, c)
		for j := i + 2; c != 0 && j < sumWords; j++ {
			s.w[j], c = bits.Add64(s.w[j], 0, c)
		}
		return
	}
	s.w[i], c = bits.Sub64(s.w[i], lo, 0)
	s.w[i+1], c = bits.Sub64(s.w[i+1], hi, c)
	for j := i + 2; c != 0 && j < sumWords; j++ {
		s.w[j], c = bits.Sub64(s.w[j], 0, c)
	}
}

// value returns the sum correctly rounded to float64 (IEEE 754 semantics
// for the non-finite cases: any NaN, or both infinities, gives NaN).
func (s *exactSum) value() float64 {
	switch {
	case s.nan > 0 || s.posInf > 0 && s.negInf > 0:
		return math.NaN()
	case s.posInf > 0:
		return math.Inf(1)
	case s.negInf > 0:
		return math.Inf(-1)
	}
	m := s.w
	neg := m[sumWords-1]>>63 != 0
	if neg {
		var c uint64 = 1
		for j := range m {
			m[j], c = bits.Add64(^m[j], 0, c)
		}
	}
	h := sumWords - 1
	for h >= 0 && m[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	// top holds the 64 bits from the leading one down; rest is nonzero
	// when any bit below them is.
	lz := bits.LeadingZeros64(m[h])
	top := m[h] << lz
	var rest uint64
	if h > 0 {
		top |= m[h-1] >> (64 - lz)
		rest = m[h-1] << lz
		for j := h - 2; j >= 0 && rest == 0; j-- {
			rest = m[j]
		}
	}
	mant := top >> 11
	const half = 1 << 10
	if top&half != 0 && (top&(half-1) != 0 || rest != 0 || mant&1 != 0) {
		mant++ // round half to even; 2^53 is still exact as a float64
	}
	// mant's LSB sits at bit h*64+63-lz-52 of a 2^-1074-unit integer, so
	// scaling by that power of two is exact (or overflows to Inf): in the
	// subnormal range the whole sum fits one word and no bit was rounded.
	f := math.Ldexp(float64(mant), h*64+63-lz-52-1074)
	if neg {
		f = -f
	}
	return f
}
