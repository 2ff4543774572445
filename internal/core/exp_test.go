package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"crowdselect/internal/linalg"
)

// The reference exponential: math/big at 256 bits, sharing no constant
// and no code with exp.go. ln 2 is the series Σ 1/(k·2ᵏ), 2**(1/64) is six
// square roots of 2, and e**x is the same decomposition exp uses — which
// keeps the Taylor series of e**r short — carried out exactly.
const bigPrec = 256

var bigExp struct {
	once     sync.Once
	ln2      *big.Float
	step     *big.Float       // ln2/64
	roots    [expN]*big.Float // 2**(i/64)
	overflow *big.Float       // 2¹⁰²⁴
}

func newBig() *big.Float { return new(big.Float).SetPrec(bigPrec) }

func bigExpInit() {
	bigExp.once.Do(func() {
		ln2, pow := newBig(), newBig().SetInt64(1)
		for k := int64(1); k <= bigPrec+8; k++ {
			pow.Quo(pow, newBig().SetInt64(2))
			ln2.Add(ln2, newBig().Quo(pow, newBig().SetInt64(k)))
		}
		bigExp.ln2 = ln2
		bigExp.step = newBig().Quo(ln2, newBig().SetInt64(expN))
		bigExp.overflow = newBig().SetMantExp(newBig().SetInt64(1), 1024)
		root := newBig().SetInt64(2)
		for i := 0; i < expTableBits; i++ {
			root.Sqrt(root)
		}
		bigExp.roots[0] = newBig().SetInt64(1)
		for i := 1; i < expN; i++ {
			bigExp.roots[i] = newBig().Mul(bigExp.roots[i-1], root)
		}
	})
}

// expBig returns e**x for a finite x to well past 200 bits.
func expBig(x float64) *big.Float {
	bigExpInit()
	k := math.Round(x * expN / math.Ln2) // any nearby integer would do: r absorbs the difference
	r := newBig().Sub(newBig().SetFloat64(x), newBig().Mul(newBig().SetFloat64(k), bigExp.step))
	sum, term := newBig().SetInt64(1), newBig().SetInt64(1)
	for n := int64(1); n <= 24; n++ { // |r| < 0.006: the 25th term is below 2⁻²⁶⁰
		term.Mul(term, r)
		term.Quo(term, newBig().SetInt64(n))
		sum.Add(sum, term)
	}
	ki := int(k)
	idx := ((ki % expN) + expN) % expN
	sum.Mul(sum, bigExp.roots[idx])
	return sum.SetMantExp(sum, (ki-idx)/expN)
}

// ulpsOff returns |got − want| in units of the last place of want, the
// spacing of doubles at want (2⁻¹⁰⁷⁴ throughout the subnormal range).
// +Inf stands for 2¹⁰²⁴, the double it would be with one more exponent,
// and so does every want beyond it.
func ulpsOff(got float64, want *big.Float) float64 {
	bigExpInit()
	if want.Cmp(bigExp.overflow) > 0 {
		want = bigExp.overflow
	}
	e := want.MantExp(nil) - 53 // want ∈ [2**(e+52), 2**(e+53))
	if e < -1074 {
		e = -1074
	}
	g := bigExp.overflow
	if !math.IsInf(got, 1) {
		g = newBig().SetFloat64(got)
	}
	diff := newBig().Sub(g, want)
	f, _ := diff.SetMantExp(diff.Abs(diff), -e).Float64()
	return f
}

// TestExpConstantsFromBig derives every committed constant of exp.go from
// first principles. On a table mismatch it prints the table to commit.
func TestExpConstantsFromBig(t *testing.T) {
	bigExpInit()
	var tab strings.Builder
	ok := true
	for i, root := range bigExp.roots {
		h, _ := root.Float64()
		rel := newBig().Sub(root, newBig().SetFloat64(h))
		tail, _ := rel.Quo(rel, newBig().SetFloat64(h)).Float64()
		fmt.Fprintf(&tab, "\t{%x, %x},\n", h, tail)
		if expTab[i] != [2]float64{h, tail} {
			ok = false
		}
	}
	if !ok {
		t.Errorf("expTab is not 2**(i/64) as (nearest double, relative tail); it should read:\n%s", tab.String())
	}

	step := bigExp.step
	if bits := math.Float64bits(expLn2HiN); bits&(1<<17-1) != 0 {
		t.Errorf("expLn2HiN = %x does not end in 17 zero bits: k·expLn2HiN is not exact", expLn2HiN)
	}
	lo := newBig().Sub(step, newBig().SetFloat64(expLn2HiN))
	if want, _ := lo.Float64(); expLn2LoN != want {
		t.Errorf("expLn2LoN = %x, want ln2/64 − expLn2HiN = %x", expLn2LoN, want)
	}
	if hi, _ := step.Float64(); math.Abs(expLn2HiN-hi) > 0x1p-35*hi {
		t.Errorf("expLn2HiN = %x is not ln2/64 = %x cut short", expLn2HiN, hi)
	}
	if want, _ := newBig().Quo(newBig().SetInt64(1), step).Float64(); expInvLn2N != want {
		t.Errorf("expInvLn2N = %x, want %x", expInvLn2N, want)
	}
	three := newBig().SetInt64(3)
	if want, _ := three.Sqrt(three).Float64(); expSqrt3 != want {
		t.Errorf("expSqrt3 = %x, want %x", float64(expSqrt3), want)
	}
}

// TestExpAccuracy: at most 1 ulp from the true value — 0.52 measured — on
// a dense sweep of the range a projection's arguments live in and on
// random points of everything that is neither 0 nor +Inf.
func TestExpAccuracy(t *testing.T) {
	worst, at := 0.0, 0.0
	check := func(x float64) {
		if off := ulpsOff(exp(x), expBig(x)); off > worst {
			worst, at = off, x
		}
	}
	dense, random := 1<<16, 100000
	if testing.Short() {
		dense, random = 1<<12, 5000
	}
	for i := 0; i <= dense; i++ {
		check(-60 + 80*float64(i)/float64(dense))
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < random; i++ {
		check(-745 + 1455*rng.Float64())
	}
	t.Logf("worst error %.4f ulp at x = %v (%x)", worst, at, at)
	if worst > 1 {
		t.Errorf("exp(%v) is %.3f ulp from e**x, want ≤ 1", at, worst)
	}
}

func TestExpEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	const (
		lastFinite    = 0x1.62e42fefa39efp+9  // ln(MaxFloat64) rounded down
		lastNormal    = -0x1.6232bdd7abcd2p+9 // e**x ≥ 2⁻¹⁰²² down to here
		lastSubnormal = -0x1.74910d52d3051p+9 // e**x > 2⁻¹⁰⁷⁵ down to here
	)
	up := func(x float64) float64 { return math.Nextafter(x, inf) }
	down := func(x float64) float64 { return math.Nextafter(x, -inf) }
	for _, c := range []struct {
		name     string
		x        float64
		lo, hi   float64 // want lo ≤ exp(x) ≤ hi, bit-exact when equal
		wantBits bool
	}{
		{"+0", 0, 1, 1, true},
		{"-0", math.Copysign(0, -1), 1, 1, true},
		{"tiny", 0x1p-60, 1, 1, true},
		{"-tiny", -0x1p-60, 1, 1, true},
		{"smallest subnormal argument", math.SmallestNonzeroFloat64, 1, 1, true},
		{"+Inf", inf, inf, inf, true},
		{"-Inf", -inf, 0, 0, true},
		{"1024", 1024, inf, inf, true},
		{"-1024", -1024, 0, 0, true},
		{"MaxFloat64", math.MaxFloat64, inf, inf, true},
		{"-MaxFloat64", -math.MaxFloat64, 0, 0, true},
		{"largest finite result", lastFinite, 0x1.ffffffffff000p+1023, math.MaxFloat64, false},
		{"first overflow", up(lastFinite), inf, inf, true},
		{"last normal result", lastNormal, 0x1p-1022, 0x1.0000000001000p-1022, false},
		{"first subnormal result", down(lastNormal), 0x0.ffffffffff000p-1022, 0x0.fffffffffffffp-1022, false},
		{"last nonzero result", lastSubnormal, 0x1p-1074, 0x1p-1074, true},
		{"first zero", down(lastSubnormal), 0, 0, true},
		{"511.99", down(512), 0x1p738, 0x1p739, false},
		{"512", 512, 0x1p738, 0x1p739, false},
		{"-512", -512, 0x1p-739, 0x1p-738, false},
	} {
		got := exp(c.x)
		if got < c.lo || got > c.hi || (c.wantBits && math.Float64bits(got) != math.Float64bits(c.lo)) || math.Signbit(got) {
			t.Errorf("%s: exp(%x) = %x, want in [%x, %x]", c.name, c.x, got, c.lo, c.hi)
		}
		if !math.IsInf(c.x, 0) && c.x > -746 && c.x < 710 {
			if off := ulpsOff(got, expBig(c.x)); off > 1 {
				t.Errorf("%s: exp(%x) = %x is %.3f ulp off", c.name, c.x, got, off)
			}
		}
	}
	if got := exp(nan); got == got {
		t.Errorf("exp(NaN) = %v", got)
	}
	// Around the branch points the two sides must agree to the last place.
	for _, x := range []float64{512, -512, 0x1p-54, -0x1p-54} {
		for _, y := range []float64{down(x), x, up(x)} {
			if off := ulpsOff(exp(y), expBig(y)); off > 1 {
				t.Errorf("exp(%x) is %.3f ulp off", y, off)
			}
		}
	}
}

// TestExpMonotone: adjacent doubles never come back in the wrong order —
// what lets a line search compare objective values a rounding apart.
func TestExpMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 10000; i++ {
		x := -745 + 1455*rng.Float64()
		if i%2 == 0 {
			x = -60 + 80*rng.Float64()
		}
		y := math.Nextafter(x, math.Inf(1))
		if ex, ey := exp(x), exp(y); ey < ex {
			t.Fatalf("exp(%x) = %x > exp(%x) = %x", x, ex, y, ey)
		}
	}
}

// TestExpBitsPinned hashes exp over a fixed grid of 4 096 arguments: a
// platform or compiler on which the owned exponential computes other bits
// fails here, by name, and not as a model digest that differs between two
// nodes. Unlike the golden digests this one holds on every GOARCH.
func TestExpBitsPinned(t *testing.T) {
	ys := make(linalg.Vector, 4096)
	for i := range ys {
		x := -750 + 1465*float64(i)/4095 // every branch: 0, subnormal, the core range, the wide tails, +Inf
		if i%2 == 1 {
			x = -40 + 60*float64(i)/4095 // and the range the kernel lives in, twice as densely
		}
		ys[i] = exp(x)
	}
	h := sha256.New()
	hashFloats(h, ys)
	const want = "0e55530159f44e067906f02abee1e1b84b221939e5a15001f95089f65c2c50c9"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("exp over the pinned grid hashes to %s, want %s", got, want)
	}
}
