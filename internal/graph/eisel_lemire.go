// eiselLemire follows eiselLemire64 in the Go standard library's
// strconv/eisel_lemire.go, which carries this notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package graph

import (
	"math"
	"math/big"
	"math/bits"
)

// The powers of ten eiselLemire multiplies by. A weight WriteText emits
// has at most 17 significant digits and, unless it is tiny or huge, an
// exponent far inside this range; anything outside it goes to strconv.
const pow10Min, pow10Max = -64, 64

// pow10 holds, for each e in [pow10Min, pow10Max], the 128 most
// significant bits of 10^e, truncated: hi has its top bit set, and
// 10^e ≈ (hi·2⁶⁴ + lo) · 2^(⌊e·log₂10⌋ − 127). It is the matching slice
// of strconv's detailedPowersOfTen, computed exactly with math/big.
var pow10 = func() (t [pow10Max - pow10Min + 1]struct{ hi, lo uint64 }) {
	ten := big.NewInt(10)
	for e := pow10Min; e <= pow10Max; e++ {
		x := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			// ⌊2^(n+127) / 10^-e⌋ for an n-bit divisor has exactly 128
			// bits, because no power of ten above 1 is a power of two.
			x.Quo(new(big.Int).Lsh(big.NewInt(1), uint(x.BitLen()+127)), x)
		}
		if s := x.BitLen() - 128; s > 0 {
			x.Rsh(x, uint(s))
		} else {
			x.Lsh(x, uint(-s))
		}
		t[e-pow10Min].lo = x.Uint64()
		t[e-pow10Min].hi = x.Rsh(x, 64).Uint64()
	}
	return t
}()

// eiselLemire returns man·10^exp10, negated if neg, rounded to the
// nearest float64 (ties to even), with one 64×128-bit multiply by the
// truncated power of ten (D. Lemire, "Number Parsing at a Gigabyte per
// Second", 2021). It declines (ok false) whenever the truncated product
// cannot decide the rounding, the result would be subnormal or infinite,
// or exp10 is outside the table; whatever it returns is what
// strconv.ParseFloat returns for the same decimal. The comments name the
// steps of https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	p := &pow10[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, p.hi)

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, p.lo)
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// A biased exponent of 0 (or one that wrapped below it) is subnormal
	// and 0x7FF or above is infinite; the table's range keeps both out of
	// reach today, and the check keeps the function exact if it grows.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}
