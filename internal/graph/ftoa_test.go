package graph

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// checkFormat fails unless appendFloat appends what strconv does.
func checkFormat(t *testing.T, x float64) {
	t.Helper()
	prefix := []byte("w ")
	got := string(appendFloat(prefix, x))
	if want := string(strconv.AppendFloat(prefix, x, 'g', -1, 64)); got != want {
		t.Fatalf("appendFloat(%#x) = %q, strconv says %q", math.Float64bits(x), got, want)
	}
}

// FuzzFormatFloat checks the writer kernel against strconv on float64 bit
// patterns: appendFloat must append exactly what
// strconv.AppendFloat(dst, x, 'g', -1, 64) appends.
func FuzzFormatFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		// The smallest subnormal, the largest, the smallest normal and
		// the largest finite value.
		5e-324, math.Float64frombits(1<<52 - 1), 0x1p-1022, math.MaxFloat64,
		// Around the %e/%f switch: exponents -5, -4, 5 and 6.
		1e-5, 9.999999999999999e-05, 1e-4, 1.0000000000000002e-4, 0.00018989106673779932,
		123456.7, 999999.9999999999, 1e6, 1234567, 100000, 5e5,
		// Integers below 2^53, their neighbours, and 2^53 itself.
		1, 7, 100, 9007199254740991, 9007199254740992, 4503599627370497.5,
		// Round half to even among two shortest candidates, and the
		// typical workload weight.
		9.5e-5, 0.3, 2.5, 5e-324 * 3, 1.2093205759592391, 0.9720220546197917,
	} {
		f.Add(math.Float64bits(x))
	}
	// Powers of two and of ten, and their neighbours, at and beyond the
	// table's edges (|x| about 10^-48 and 10^80) and in between.
	for _, e := range []int{-170, -161, -160, -159, -150, -1, 0, 1, 52, 53, 260, 267, 268, 269, 280} {
		x := math.Ldexp(1, e)
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(math.Nextafter(x, 0)))
		f.Add(math.Float64bits(math.Nextafter(x, math.Inf(1))))
	}
	for _, e := range []int{-50, -49, -48, -47, -22, -1, 0, 1, 22, 23, 79, 80, 81, 82} {
		x := math.Pow10(e)
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(math.Nextafter(x, 0)))
		f.Add(math.Float64bits(math.Nextafter(x, math.Inf(1))))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkFormat(t, math.Float64frombits(b))
	})
}

// TestFormatFloat sweeps what the fuzz target explores at random: bit
// patterns with exponents in and around the table's range, every power
// of two and of ten with its neighbours, integers, and short decimals.
func TestFormatFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		b := rng.Uint64()
		if i%2 == 0 {
			b = b&^(0x7FF<<52) | uint64(1023-300+rng.Intn(600))<<52
		}
		checkFormat(t, math.Float64frombits(b))
	}
	for e := -1075; e < 1024; e++ {
		x := math.Ldexp(1, e)
		checkFormat(t, x)
		checkFormat(t, math.Nextafter(x, 0))
		checkFormat(t, math.Nextafter(x, math.Inf(1)))
	}
	for e := -325; e < 309; e++ {
		x, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		checkFormat(t, x)
		checkFormat(t, math.Nextafter(x, 0))
		checkFormat(t, math.Nextafter(x, math.Inf(1)))
	}
	for i := 0; i < 20000; i++ {
		checkFormat(t, float64(i))
		checkFormat(t, float64(i)/1000)
		checkFormat(t, float64(rng.Int63n(1<<53)))
		checkFormat(t, -rng.Float64()*2)
	}
}

// TestLogApprox pins the integer logarithms shortestDecimal uses to their
// definitions, computed exactly: log10Pow2 and log10ThreeQuartersPow2
// over every normal exponent, log2Pow10 over the table.
func TestLogApprox(t *testing.T) {
	// floorLog returns the largest k with base^k <= v, searching from
	// the float64 estimate guess.
	floorLog := func(v *big.Rat, base int64, guess float64) int {
		k := int(math.Floor(guess))
		pow := func(k int) *big.Rat {
			p := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(k, -k))), nil))
			if k < 0 {
				p.Inv(p)
			}
			return p
		}
		for pow(k).Cmp(v) > 0 {
			k--
		}
		for pow(k+1).Cmp(v) <= 0 {
			k++
		}
		return k
	}
	pow2 := func(e int) *big.Rat {
		p := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e))))
		if e < 0 {
			p.Inv(p)
		}
		return p
	}
	for q := -1074; q <= 971; q++ {
		if got, want := log10Pow2(q), floorLog(pow2(q), 10, float64(q)*math.Log10(2)); got != want {
			t.Errorf("log10Pow2(%d) = %d, want %d", q, got, want)
		}
		v := new(big.Rat).Mul(pow2(q), big.NewRat(3, 4))
		if got, want := log10ThreeQuartersPow2(q), floorLog(v, 10, float64(q)*math.Log10(2)+math.Log10(0.75)); got != want {
			t.Errorf("log10ThreeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for e := pow10Min; e <= pow10Max; e++ {
		ten := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil))
		if e < 0 {
			ten.Inv(ten)
		}
		if got, want := log2Pow10(e), floorLog(ten, 2, float64(e)*math.Log2(10)); got != want {
			t.Errorf("log2Pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// KernelFallbacks returns the weights of g that appendFloat leaves to
// strconv, for the external test package's workload graphs.
func KernelFallbacks(g *Graph) []float64 {
	var out []float64
	for _, t := range g.tasks {
		if _, _, ok := shortestDecimal(t.Comp); !ok {
			out = append(out, t.Comp)
		}
	}
	for _, e := range g.edges {
		if _, _, ok := shortestDecimal(e.Comm); !ok {
			out = append(out, e.Comm)
		}
	}
	return out
}
