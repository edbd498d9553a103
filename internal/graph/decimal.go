package graph

import (
	"encoding/binary"
	"math/bits"
)

// digits appends the decimal digits at b[i:] to man and returns it with
// the index of the first byte that is not a digit. It reads eight bytes
// at a time while eight are left (SWAR: one 64-bit word holds eight
// digits), and a run ends at the lowest byte of a word that is not a
// digit: the bytes after it are never read as digits, so a caller whose
// line is followed by a newline may pass the buffer beyond the line. man
// wraps past 19 digits; callers count the digits and discard it then.
func digits(b []byte, i int, man uint64) (uint64, int) {
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		// A byte below '0' sets its top bit when 0x30 is taken away, and
		// one above '9' when 0x46 is added. Digits neither borrow nor
		// carry, so the lowest byte that is not a digit is computed
		// alone and flagged: the test is exact there, whatever it says
		// of the bytes above.
		if m := ((x + 0x4646464646464646) | (x - 0x3030303030303030)) & 0x8080808080808080; m != 0 {
			// The n digits below it, moved to the top of the word over
			// zero bytes, are an eight-digit number with leading zeros.
			if n := bits.TrailingZeros64(m) / 8; n > 0 {
				man = man*pow10u[n] + digitValue((x-0x3030303030303030)<<(64-8*n))
				i += n
			}
			return man, i
		}
		man = man*1e8 + digitValue(x-0x3030303030303030)
	}
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, i
}

// digitValue returns the eight-digit number whose digits, as values 0 to
// 9, are the bytes of x, the first digit in the lowest byte.
func digitValue(x uint64) uint64 {
	// Combine neighbouring digits into two-digit bytes, then pairs of
	// those into the eight-digit value, two multiplies each.
	x = x*10 + x>>8
	return (x&0x000000FF000000FF*(100+1000000<<32) + x>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
}

// parseDecimal converts the number at the start of b, of the form
// -?d+(.d+)?([eE][+-]?d+)?, to the nearest float64, and returns it with
// the number of bytes it spans. A significand below 2⁵³ with a power of
// ten up to 10²² takes one exact float64 multiply or divide; any other
// goes to eiselLemire. It declines (ok false) a number with more than 19
// significant digits, where leading zeros of the integer or the fraction
// do not count, and one eiselLemire declines. Whatever it accepts,
// strconv.ParseFloat(string(b[:n]), 64) returns bit for bit.
func parseDecimal(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i] == '0' {
		i++
	}
	man, j := digits(b, i, 0)
	if j == start {
		return 0, 0, false
	}
	nd, exp10 := j-i, 0
	if i = j; i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		if man, j = digits(b, i, man); j == frac {
			return 0, 0, false
		}
		nd, exp10, i = nd+j-i, frac-j, j
	}
	if nd > 19 {
		return 0, 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		e := 0
		for j = i; j < len(b) && b[j]-'0' < 10; j++ {
			if e < 10000 { // far outside the table, and no overflow
				e = e*10 + int(b[j]-'0')
			}
		}
		if j == i {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp10, i = exp10+e, j
	}
	if man>>53 == 0 && exp10 >= -22 && exp10 <= 22 {
		// man and 10^|exp10| are exact float64s, so one IEEE multiply or
		// divide rounds the exact value once, as strconv does first too.
		// Eisel–Lemire would decline some of these (1.5 is one).
		if f = float64(man); exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, ok = eiselLemire(man, exp10, neg)
	return f, i, ok
}

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
