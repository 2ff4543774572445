package core

import "math"

// exp is the kernel's exponential (KernelVersion 3): every e**x whose bits
// reach a λ_c, a posterior or the ELBO that stops training is taken here,
// so those bits are a function of the source and not of the machine.
// math.Exp on amd64 is assembly that picks a fused multiply-add path when
// CPUID offers one; this is Go, written so that no two roundings can be
// merged: every product is wrapped in a float64 conversion, which the
// language defines as a rounding point no compiler may fuse across (the
// arm64, ppc64, s390x and riscv64 compilers fuse x*y+z otherwise).
//
// The algorithm is the table-driven one of Tang as laid out by S. Nagy for
// the ARM optimized routines: with N = 64,
//
//	x = k·ln2/N + r,  |r| ≤ ln2/2N,  k = N·top + idx
//	e**x = 2**top · 2**(idx/N) · e**r
//
// k is x·N/ln2 rounded to nearest by adding and subtracting 1.5·2⁵² (its
// integer bits are then the low bits of the sum); r subtracts k·ln2/N in
// two parts, the high one short enough for its product with k to be exact;
// 2**(idx/N) comes from expTab as a double and its relative tail; e**r − 1
// is a degree-5 polynomial. The result is s + s·p with s = 2**top·2**(idx/N):
// 0.52 ulp at worst (exp_test.go measures it against math/big), monotone
// to within that; |x| ≥ 512, where s itself may overflow or go subnormal,
// is finished separately at the end.
func exp(x float64) float64 {
	ax := math.Abs(x)
	wide := false
	if !(ax < 512) || ax < 0x1p-54 { // NaN is not < 512
		switch {
		case ax < 0x1p-54:
			return 1 + x // rounds to 1, exactly 1 at ±0
		case x != x:
			return x
		case x >= 1024:
			return math.Inf(1)
		case x <= -1024:
			return 0
		}
		wide = true
	}
	kd := float64(x*expInvLn2N) + expShift
	ki := math.Float64bits(kd)
	kd -= expShift
	r := x - float64(kd*expLn2HiN) - float64(kd*expLn2LoN)
	t := &expTab[ki%expN]
	// 2**top goes straight into the exponent field: ki with its low six
	// bits cleared is N·top, and shifting it by 52 − 6 leaves top mod 2¹².
	sbits := math.Float64bits(t[0]) + (ki&^(expN-1))<<(52-expTableBits)
	r2 := float64(r * r)
	p := t[1] + r + float64(r2*(expC2+float64(r*expC3))) + float64(float64(r2*r2)*(expC4+float64(r*expC5)))
	s := math.Float64frombits(sbits)
	if !wide {
		return s + float64(s*p)
	}
	// 512 ≤ |x| < 1024: 2**top does not fit the exponent field. The scale is
	// brought back in range by a power of two that is multiplied in last, so
	// overflow rounds to +Inf, and underflow to a subnormal or to 0, in that
	// one multiplication. (Spelled out here and not in a function of its
	// own: exp stays a leaf, with no frame and no stack check.)
	if x > 0 {
		s = math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (s + float64(s*p))
	}
	s = math.Float64frombits(sbits + 1022<<52)
	sp := float64(s * p)
	y := s + sp
	if y < 1 {
		// The result is subnormal. Rounding y to 53 bits here and to the
		// subnormal grid below would round twice; instead y is rounded
		// once, at 2⁻⁵² — the grid 2⁻¹⁰²² scales onto 2⁻¹⁰⁷⁴ — by adding
		// it to 1 with the bits the first sum dropped carried in lo.
		lo := s - y + sp
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = (hi + lo) - 1
	}
	return 0x1p-1022 * y
}

const (
	expTableBits = 6
	expN         = 1 << expTableBits // table size; r spans ln2/N

	expShift   = 0x1.8p52
	expInvLn2N = expN / math.Ln2
	// ln2/N = expLn2HiN + expLn2LoN. The high part ends in 17 zero bits:
	// |k| < 2¹⁷ for |x| < 1024, so k·expLn2HiN is exact.
	expLn2HiN = 0x1.62e42fefa0000p-7
	expLn2LoN = 0x1.cf79abc9e3b3ap-46

	// e**r − 1 − r ≈ C2 r² + C3 r³ + C4 r⁴ + C5 r⁵ on |r| ≤ a = ln2/2N:
	// Taylor's coefficients with the first dropped term, r⁶/720, folded
	// back into r² and r⁴ by its best approximation from that span — with
	// u = r², the cubic u³ − βu² − αu that is the Chebyshev T₃ stretched so
	// that its first zero sits at u = 0 and its last extremum at u = a²:
	// β = (3√3/2)·σ, α = −(3/2)·σ², σ = a²/(1 + √3/2). That leaves
	// a⁶/(720·26) ≈ 2⁻⁵⁹·⁶ of the 2⁻⁵⁴·⁷ plain truncation would.
	// The compiler evaluates these exactly and rounds each once.
	expSqrt3 = 1.73205080756887729352744634150587236694280525381038
	expA     = math.Ln2 / (2 * expN)
	expSigma = expA * expA / (1 + expSqrt3/2)
	expC2    = 1.0/2 - 1.5*expSigma*expSigma/720
	expC3    = 1.0 / 6
	expC4    = 1.0/24 + 1.5*expSqrt3*expSigma/720
	expC5    = 1.0 / 120
)

// expTab[i] is 2**(i/N) as the nearest double h and the relative tail
// (2**(i/N) − h)/h. TestExpConstantsFromBig rebuilds every entry, and the
// constants above, from math/big square roots and a series for ln 2.
var expTab = [expN][2]float64{
	{0x1p+00, 0x0p+00},
	{0x1.02c9a3e778061p+00, -0x1.160139cd8dc5dp-56},
	{0x1.059b0d3158574p+00, 0x1.cd2523567f613p-55},
	{0x1.0874518759bc8p+00, 0x1.0f74e61e6c861p-57},
	{0x1.0b5586cf9890fp+00, 0x1.79aa65d837b6dp-54},
	{0x1.0e3ec32d3d1a2p+00, 0x1.ebe3d702f9cd1p-60},
	{0x1.11301d0125b51p+00, -0x1.556522a2fbd0ep-54},
	{0x1.1429aaea92dep+00, -0x1.1c923b9d5f416p-54},
	{0x1.172b83c7d517bp+00, -0x1.01b15eaa59348p-55},
	{0x1.1a35beb6fcb75p+00, 0x1.b898c3f1353bfp-55},
	{0x1.1d4873168b9aap+00, 0x1.aecf73e3a2f6p-54},
	{0x1.2063b88628cd6p+00, 0x1.a6f4144a6c38dp-55},
	{0x1.2387a6e756238p+00, 0x1.68efde3a8a894p-54},
	{0x1.26b4565e27cddp+00, 0x1.0472b981fe7f2p-55},
	{0x1.29e9df51fdee1p+00, 0x1.2f7e16d09ab31p-55},
	{0x1.2d285a6e4030bp+00, 0x1.b3782720c0ab4p-55},
	{0x1.306fe0a31b715p+00, 0x1.34d754db0abb6p-55},
	{0x1.33c08b26416ffp+00, 0x1.fdd395dd3f84ap-55},
	{0x1.371a7373aa9cbp+00, -0x1.24aedcc4b5068p-54},
	{0x1.3a7db34e59ff7p+00, -0x1.1d1e83e9436d2p-56},
	{0x1.3dea64c123422p+00, 0x1.59f48a72a4c6dp-55},
	{0x1.4160a21f72e2ap+00, -0x1.8a78f4817895bp-58},
	{0x1.44e086061892dp+00, 0x1.363ed60c2ac11p-59},
	{0x1.486a2b5c13cdp+00, 0x1.ecce1daa10379p-57},
	{0x1.4bfdad5362a27p+00, 0x1.690cebb7aafbp-56},
	{0x1.4f9b2769d2ca7p+00, -0x1.f94340071a38ep-55},
	{0x1.5342b569d4f82p+00, -0x1.8dec6bd0f385fp-56},
	{0x1.56f4736b527dap+00, 0x1.3350518fdd78ep-54},
	{0x1.5ab07dd485429p+00, 0x1.063e1e21c5409p-54},
	{0x1.5e76f15ad2148p+00, 0x1.432e62b64c035p-54},
	{0x1.6247eb03a5585p+00, -0x1.c33c53bef4da8p-55},
	{0x1.6623882552225p+00, -0x1.3cedd78565858p-54},
	{0x1.6a09e667f3bcdp+00, -0x1.3b3efbf5e2228p-54},
	{0x1.6dfb23c651a2fp+00, -0x1.367efb86da9eep-57},
	{0x1.71f75e8ec5f74p+00, -0x1.81f647e5a3ecfp-56},
	{0x1.75feb564267c9p+00, -0x1.619321e55e68ap-55},
	{0x1.7a11473eb0187p+00, -0x1.b32dcb94da51dp-56},
	{0x1.7e2f336cf4e62p+00, 0x1.5ebe1abd66c55p-57},
	{0x1.82589994cce13p+00, -0x1.369b6f13b3734p-54},
	{0x1.868d99b4492edp+00, -0x1.4d450d872576ep-54},
	{0x1.8ace5422aa0dbp+00, 0x1.db72fc1f0eab4p-55},
	{0x1.8f1ae99157736p+00, 0x1.bf68359f35f44p-56},
	{0x1.93737b0cdc5e5p+00, -0x1.da9b88b6c1e29p-58},
	{0x1.97d829fde4e5p+00, -0x1.2434322f4f9aap-54},
	{0x1.9c49182a3f09p+00, 0x1.1affc2b91ce27p-56},
	{0x1.a0c667b5de565p+00, -0x1.7c50422622263p-55},
	{0x1.a5503b23e255dp+00, -0x1.1bbd1d3bcbb15p-54},
	{0x1.a9e6b5579fdbfp+00, 0x1.469846e735ab3p-55},
	{0x1.ae89f995ad3adp+00, 0x1.c1a7792cb3387p-55},
	{0x1.b33a2b84f15fbp+00, -0x1.5c3d956dcaebap-58},
	{0x1.b7f76f2fb5e47p+00, -0x1.8d6f438ad9334p-57},
	{0x1.bcc1e904bc1d2p+00, 0x1.4ffd70a5fddcdp-56},
	{0x1.c199bdd85529cp+00, 0x1.36eae30af0cb3p-56},
	{0x1.c67f12e57d14bp+00, 0x1.4e08fd10959acp-55},
	{0x1.cb720dcef9069p+00, 0x1.76b2c6c921968p-57},
	{0x1.d072d4a07897cp+00, -0x1.fad5d3ffffa6fp-55},
	{0x1.d5818dcfba487p+00, 0x1.4a385a63d07a7p-56},
	{0x1.da9e603db3285p+00, 0x1.e5a50d5c192acp-55},
	{0x1.dfc97337b9b5fp+00, -0x1.2d52107b43e1fp-55},
	{0x1.e502ee78b3ff6p+00, 0x1.4b604603a88d3p-56},
	{0x1.ea4afa2a490dap+00, -0x1.ff7128fd391fp-55},
	{0x1.efa1bee615a27p+00, 0x1.ec3bc41aa2008p-55},
	{0x1.f50765b6e454p+00, 0x1.a64a931d185eep-55},
	{0x1.fa7c1819e90d8p+00, 0x1.7893b4d91cd9dp-56},
}
