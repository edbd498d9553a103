package graph

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// appendFloat appends x as strconv.AppendFloat(dst, x, 'g', -1, 64)
// does, byte for byte: the shortest decimal that reads back as x, in %e
// form when its exponent is below -4 or at least 6 (the threshold
// strconv applies to shortest %g) and in %f form otherwise. Finite
// normal values whose power of ten the pow10 table holds take
// shortestDecimal; zeros, subnormals, NaN, the infinities and magnitudes
// outside the table go to strconv.
//
// The digits are stored eight at a time, left-aligned: m is scaled to
// exactly 17 digits, so the bytes past its own digits are zeros, which
// the next append overwrites or which are the zeros of an integer.
func appendFloat(dst []byte, x float64) []byte {
	m, e, ok := shortestDecimal(x)
	if !ok {
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	n := len(dst)
	dst = slices.Grow(dst, 32) // sign, "0.000" or "d.", 17 digits, "e-48"
	b := dst[n : n+32]
	i := 0
	if math.Signbit(x) {
		b[0] = '-'
		i = 1
	}
	// m scaled to 17 digits, as a top digit and two words of eight; nd
	// counts its digits up to the last that is not zero.
	width := decimalLen(m)
	exp := width + e - 1 // the exponent of the leading digit
	m *= pow10u[17-width]
	hi, lo := m/1e8, uint32(m%1e8)
	top, w1, w2 := byte(hi/1e8), digits8(uint32(hi%1e8)), digits8(lo)
	nd := 17 - trailingZeros(w1, w2)
	switch {
	case exp == 0 || exp < -4 || exp >= 6:
		// d[.ddd], then e±dd unless the exponent is 0.
		b[i], b[i+1] = '0'+top, '.'
		binary.LittleEndian.PutUint64(b[i+2:], w1)
		binary.LittleEndian.PutUint64(b[i+10:], w2)
		if i += nd + 1; nd == 1 {
			i--
		}
		if exp == 0 {
			break
		}
		// The table keeps |exp| below 100: two digits.
		b[i], b[i+1] = 'e', '+'
		if exp < 0 {
			b[i+1], exp = '-', -exp
		}
		b[i+2], b[i+3] = byte('0'+exp/10), byte('0'+exp%10)
		i += 4
	case exp < 0:
		// 0.0ddd: the point and -exp-1 zeros, then the digits.
		binary.LittleEndian.PutUint64(b[i:], 0x303030303030_2e30) // "0.000000"
		i += 1 - exp
		b[i] = '0' + top
		binary.LittleEndian.PutUint64(b[i+1:], w1)
		binary.LittleEndian.PutUint64(b[i+9:], w2)
		i += nd
	default:
		// ddd000 or dd.ddd: the integer digits, the zeros of m's scaling
		// among them, and then, if digits remain, the point and the rest.
		b[i] = '0' + top
		binary.LittleEndian.PutUint64(b[i+1:], w1)
		binary.LittleEndian.PutUint64(b[i+9:], w2)
		if exp+1 >= nd {
			i += exp + 1
			break
		}
		for j := i + nd; j > i+exp+1; j-- {
			b[j] = b[j-1]
		}
		b[i+exp+1] = '.'
		i += nd + 1
	}
	return dst[:n+i]
}

// shortestDecimal returns the shortest decimal m·10^e that reads back as
// |x| under round-half-even, the one nearest |x| when several are that
// short, and the even one of two equally near: the digits strconv's
// shortest formatting prints, though m < 10^17 may end in zeros. It
// declines (ok false) zeros, subnormals, NaN, the infinities and every x
// whose power of ten lies outside pow10: |x| below about 10^-48 or above
// 10^80.
//
// It follows R. Giulietti, "The Schubfach way to render doubles" (2020),
// over the 128-bit table of eisel_lemire.go: x = c·2^q lies in the
// rounding interval R, and the decimals with the fewest digits in R are
// among the multiples of 10^k and 10^(k+1) nearest x, for the k with
// 10^k ≤ 2^q < 10^(k+1). Those four candidates, and R's ends, come from
// three products of 4c, 4c−2 (or 4c−1) and 4c+2 with 10^(−k).
func shortestDecimal(x float64) (m uint64, e int, ok bool) {
	b := math.Float64bits(x)
	be := int(b>>52) & 0x7FF
	frac := b & (1<<52 - 1)
	if be == 0 || be == 0x7FF {
		return 0, 0, false
	}
	c := frac | 1<<52
	q := be - 1075
	// An integer below 2^53 is its own shortest decimal: R is at most
	// one unit wide, so no other multiple of a power of ten lies in it.
	if -52 <= q && q <= 0 {
		if m = c >> uint(-q); m<<uint(-q) == c {
			return m, 0, true
		}
	}
	// R is [x − 2^(q−1), x + 2^(q−1)], with its ends when c is even. At
	// a power of two (c = 2^52) the spacing below x halves, and k
	// follows the lower end: ⌊log₁₀(¾·2^q)⌋.
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := log10Pow2(q)
	if frac == 0 && be > 1 {
		cbl, k = cb-1, log10ThreeQuartersPow2(q)
	}
	if -k < pow10Min || -k > pow10Max {
		return 0, 0, false
	}
	// g is the 128-bit 10^(−k) rounded up: pow10 truncates it, and the
	// products need an upper bound. h puts each product's binary point
	// 128 bits up, so vb is 4x·10^(−k) rounded to odd (likewise vbl,
	// vbr for R's ends).
	p := &pow10[-k-pow10Min]
	glo, carry := bits.Add64(p.lo, 1, 0)
	ghi := p.hi + carry
	h := uint(q + log2Pow10(-k) + 1)
	vb := roundToOdd(ghi, glo, cb<<h)
	vbl := roundToOdd(ghi, glo, cbl<<h)
	vbr := roundToOdd(ghi, glo, cbr<<h)
	odd := c & 1 // an odd c excludes R's ends

	s := vb >> 2 // ⌊x·10^(−k)⌋
	if s >= 100 {
		// R is narrower than 10^(k+1), so it holds at most one of the
		// two multiples of 10^(k+1) around x; if it does, that one has
		// the fewest digits.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+odd <= sp10<<2
		wpin := tp10<<2+odd <= vbr
		if upin != wpin {
			if !upin {
				sp10 = tp10
			}
			return sp10, k, true
		}
	}
	t := s + 1
	uin := vbl+odd <= s<<2
	win := t<<2+odd <= vbr
	if uin != win {
		if !uin {
			s = t
		}
		return s, k, true
	}
	// Both neighbours lie in R: take the nearer, and the even one of two
	// equally near.
	if d := int64(vb - (s+t)<<1); d > 0 || d == 0 && s&1 != 0 {
		s = t
	}
	return s, k, true
}

// roundToOdd returns ⌊cp·g / 2^128⌋ with its lowest bit set when the
// fraction dropped is not zero, g = ghi·2^64 + glo. The bits below the
// second word carry only g's rounding error and are not read.
func roundToOdd(ghi, glo, cp uint64) uint64 {
	x1, _ := bits.Mul64(glo, cp)
	y1, y0 := bits.Mul64(ghi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	if z != 0 {
		return (y1 + carry) | 1
	}
	return y1 + carry
}

// log10Pow2 returns ⌊e·log₁₀2⌋, log10ThreeQuartersPow2 ⌊log₁₀(¾·2^e)⌋
// and log2Pow10 ⌊e·log₂10⌋, exact over the table's range (TestLogApprox).
func log10Pow2(e int) int { return e * 78913 >> 18 }
func log10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}
func log2Pow10(e int) int { return e * 217706 >> 16 }

// trailingZeros returns the number of '0' digits that end the sixteen
// ASCII digits of w1 and w2 (digits8 words, the first digit lowest).
func trailingZeros(w1, w2 uint64) int {
	const zeros = 0x3030303030303030
	if w2 != zeros {
		return bits.LeadingZeros64(w2^zeros) / 8
	}
	return 8 + bits.LeadingZeros64(w1^zeros)/8
}

// pow10u holds 10^i for every i a uint64 holds.
var pow10u = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen returns the number of decimal digits of m, 1 for 0.
func decimalLen(m uint64) int {
	m |= 1                          // as many digits: no power of ten is odd
	n := bits.Len64(m) * 1233 >> 12 // ⌊log₁₀ 2^len⌋: m has n or n+1 digits
	if m < pow10u[n] {
		return n
	}
	return n + 1
}

// digitPairs holds the ASCII digits of 0 to 99, two to an entry, the
// first digit in the low byte: 200 bytes.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// digits8 returns the eight decimal digits of x < 10^8, leading zeros
// included, as ASCII bytes with the first digit in the lowest byte, read
// two at a time from digitPairs.
func digits8(x uint32) uint64 {
	a, b := x/10000, x%10000
	return uint64(digitPairs[a/100]) | uint64(digitPairs[a%100])<<16 |
		uint64(digitPairs[b/100])<<32 | uint64(digitPairs[b%100])<<48
}

// appendUint appends the decimal digits of m, as strconv.AppendUint does.
func appendUint(dst []byte, m uint64) []byte {
	if m >= 1e8 {
		return strconv.AppendUint(dst, m, 10)
	}
	n, nd := len(dst), decimalLen(m)
	dst = slices.Grow(dst, 8)
	// Shifting out the leading zeros puts the first digit first. Ids
	// below 10^4, the most common, take two pairs instead of four.
	var w uint64
	if m < 1e4 {
		w = (uint64(digitPairs[m/100]) | uint64(digitPairs[m%100])<<16) >> (32 - 8*nd)
	} else {
		w = digits8(uint32(m)) >> (64 - 8*nd)
	}
	binary.LittleEndian.PutUint64(dst[n:n+8], w)
	return dst[:n+nd]
}
