package graph

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseDecimal checks the decimal kernel against strconv: whatever
// prefix of the input parseDecimal accepts, strconv.ParseFloat must
// accept too and return the same bits.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{
		// 19 and 20 significant digits, past 2⁶⁴ too.
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"18446744073709551615", "99999999999999999999", "0.1234567890123456789",
		"1.2345678901234567891",
		"-9.999999999999999999e-10", "1000000000000000000000",
		// Leading zeros, which do not count, in the integer and the fraction.
		"0.00018989106673779932", "000123.5", "0.0000000000000000001234567890123456789",
		"0", "-0", "0.000", "0e99999", "00", "-0.0e-5",
		// The table's edges and one past each.
		"1e-64", "1e-65", "1e64", "1e65", "0.1e-63", "0.1e-64", "10e63", "10e64",
		"123456789e-72", "9.999999999999999e-65", "9.999999999999999e64",
		// Round half to even, and an exact product that is not a tie.
		"9007199254740993", "9007199254740995", "1e23", "8.41e21",
		// The smallest normal, a subnormal, the largest finite, overflow.
		"2.2250738585072014e-308", "4.9e-324", "1.7976931348623157e308", "1.8e308",
		// Forms strconv reads and the kernel declines.
		"+7", "0x1p-2", "inf", "NaN", ".5", "5.", "1e", "1e+", "-", "1_0", "",
		// A number followed by more bytes, the bytes next to the digits
		// among them at every place of an eight-byte word.
		"1.5 x", "2e3e4", "7.25#", "12345678.123456789 0",
		"1234567/89", "1234567:89", "0.1234567:9", "123/4567890", "12:34567890",
	} {
		f.Add(s)
	}
	// FormatFloat outputs over random bit patterns, half of them with an
	// exponent the table reaches.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 64; k++ {
		b := rng.Uint64()
		if k%2 == 0 {
			b = b&^(0x7FF<<52) | uint64(1023-200+rng.Intn(400))<<52
		}
		x := math.Float64frombits(b)
		f.Add(strconv.FormatFloat(x, 'g', -1, 64))
		for _, prec := range []int{0, 3, 16, 18} {
			f.Add(strconv.FormatFloat(x, 'e', prec, 64))
			f.Add(strconv.FormatFloat(x, 'f', prec, 64))
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, n, ok := parseDecimal([]byte(s))
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s[:n], 64)
		if err != nil {
			t.Fatalf("parseDecimal accepts %q, which strconv rejects: %v", s[:n], err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseDecimal(%q) = %v (%#x), strconv says %v (%#x)", s[:n], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestPow10Table pins every entry m of the power table to its
// definition with multiplications alone: m·2^q ≤ 10^e < (m+1)·2^q, with
// q = ⌊e·log₂10⌋ − 127 as eiselLemire computes it, and m of 128 bits.
func TestPow10Table(t *testing.T) {
	for e := pow10Min; e <= pow10Max; e++ {
		m := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[e-pow10Min].hi), 64)
		m.Or(m, new(big.Int).SetUint64(pow10[e-pow10Min].lo))
		q := 217706*e>>16 - 127
		// Scale both sides of the inequality to integers.
		unit := new(big.Int).Lsh(big.NewInt(1), uint(max(q, 0)))
		unit.Mul(unit, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(-e, 0))), nil))
		lhs := new(big.Int).Mul(m, unit)
		rhs := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, 0))), nil)
		rhs.Lsh(rhs, uint(max(-q, 0)))
		if m.BitLen() != 128 || lhs.Cmp(rhs) > 0 || lhs.Add(lhs, unit).Cmp(rhs) <= 0 {
			t.Errorf("10^%d: entry %#x is not the 128-bit truncation at 2^%d", e, m, q)
		}
	}
}

// offCanonical lists inputs whose last line leaves readCanonical for one
// reason each, under the limits given; every line before it is
// canonical. The oracle fuzz target takes them as seeds.
var offCanonical = []struct {
	src                string
	maxTasks, maxEdges int
}{
	// A separator other than one space, or a comment.
	{src: canonicalHead + "edge 0\t1 2\n"},
	{src: canonicalHead + "edge 0 1\v2\n"},
	{src: canonicalHead + "edge 0\u00a01 2\n"},
	{src: canonicalHead + "edge 0  1 2\n"},
	{src: canonicalHead + "edge 0 1 2 \n"},
	{src: canonicalHead + "edge 0 1 2 # note\n"},
	{src: canonicalHead + "task 2 1 x#y\n"},
	{src: canonicalHead + "task 2 1 café\n"},
	// Number forms strconv reads and the kernel does not.
	{src: canonicalHead + "edge 0 1 +7\n"},
	{src: canonicalHead + "edge +0 1 7\n"},
	{src: canonicalHead + "task 2 0x1p-2\n"},
	{src: canonicalHead + "task 2 inf\n"},
	{src: canonicalHead + "edge 0 1 .5\n"},
	{src: canonicalHead + "edge 0 1 1.2345678901234567891\n"},
	{src: canonicalHead + "edge 0 1 1e65\n"},
	{src: canonicalHead + "edge 0 1 1e-65\n"},
	{src: canonicalHead + "edge 0 1 9007199254740993\n"},
	{src: canonicalHead + "task 2 -0\n"},
	// Lines a check rejects.
	{src: canonicalHead + "task 3 1\n"},
	{src: canonicalHead + "task 2 -1\n"},
	{src: canonicalHead + "edge 0 2 1\n"},
	{src: canonicalHead + "edge 18446744073709551615 1 2\n"},
	{src: canonicalHead + "edge 0 1 -2\n"},
	{src: canonicalHead + "task 2 1 _ x\n"},
	{src: canonicalHead + "task 2 1\n", maxTasks: 2},
	{src: canonicalHead + "edge 0 1 1\nedge 1 0 1\n", maxEdges: 1},
	{src: canonicalHead + "edge 0 1 1\nedge 0 1 2\n", maxEdges: 1},
}

// canonicalHead is a canonical prefix declaring tasks 0 and 1.
const canonicalHead = "graph g\ntask 0 1.5 _\ntask 1 0.25 a\n"

// canonicalMisses reads text line by line as ReadTextLimits does and
// returns the task and edge lines readCanonical left to readLine, up to
// the first line readLine rejects.
func canonicalMisses(text string, lim Limits) []string {
	p := textReader{lim: lim.Normalized()}
	var misses []string
	for _, line := range strings.Split(text, "\n") {
		p.lineNo++
		if p.readCanonical([]byte(line)) {
			continue
		}
		if strings.HasPrefix(line, "task") || strings.HasPrefix(line, "edge") {
			misses = append(misses, line)
		}
		if p.readLine([]byte(line)) != nil {
			break
		}
	}
	return misses
}

// CanonicalMisses exposes canonicalMisses, under the default limits, to
// the external test package, whose workload graphs cannot be built here.
func CanonicalMisses(text string) []string { return canonicalMisses(text, Limits{}) }

// TestReadCanonicalDeclines pins that each offCanonical input leaves the
// fast path on its last line and on no other.
func TestReadCanonicalDeclines(t *testing.T) {
	for _, c := range offCanonical {
		lines := strings.Split(strings.TrimSuffix(c.src, "\n"), "\n")
		want := lines[len(lines)-1:]
		if got := canonicalMisses(c.src, Limits{MaxTasks: c.maxTasks, MaxEdges: c.maxEdges}); !slices.Equal(got, want) {
			t.Errorf("%q: readCanonical declines %q, want %q", c.src, got, want)
		}
	}
}
