// Package dist is the synthetic-distribution substrate for the experiments
// and tests: a catalogue of classical families with exact population
// functionals (mean, variance, quantiles, central moments) so reproduction
// runs can compare a private release against ground truth.
//
// Everything samples through an explicit *xrand.RNG, so a draw is a pure
// function of (family, parameters, seed). Constructors panic on invalid
// parameters (callers that take user input wrap them — see updp-gen's
// safe()); functionals that do not exist for a family return +Inf or NaN
// rather than panicking, matching the paper's "no assumptions" framing in
// which estimators must behave sanely even when moments diverge.
package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/xrand"
)

// Distribution is one continuous univariate family with known population
// functionals.
type Distribution interface {
	// Name identifies the family and parameters for table rows.
	Name() string
	// Mean returns the population mean (+Inf/NaN when it diverges).
	Mean() float64
	// Var returns the population variance (+Inf/NaN when it diverges).
	Var() float64
	// Quantile returns F^{-1}(p) for p in (0, 1).
	Quantile(p float64) float64
	// Sample draws one variate.
	Sample(rng *xrand.RNG) float64
	// CentralMoment returns E[(X-EX)^k] (k >= 0).
	CentralMoment(k int) float64
}

// SampleN draws n iid variates.
func SampleN(d Distribution, rng *xrand.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// IQROf returns the population interquartile range F^{-1}(3/4) - F^{-1}(1/4).
func IQROf(d Distribution) float64 {
	return d.Quantile(0.75) - d.Quantile(0.25)
}

// Phi returns the pairwise-distance quantile φ(β) = inf{x : P(|X-X'| <= x)
// >= β} for X, X' iid from d — the functional Algorithm 7's guarantee is
// stated in (¼·φ(1/16) <= IQR̲ <= IQR, Theorem 4.3). Computed by a
// deterministic Monte-Carlo with a fixed internal seed; accurate to the
// sampling error of 2^17 pairs, which is far below the factor-2 slack the
// theorem statements carry.
func Phi(d Distribution, beta float64) float64 {
	if !(beta > 0 && beta < 1) {
		panic(fmt.Sprintf("dist: Phi with beta %v outside (0,1)", beta))
	}
	const pairs = 1 << 17
	rng := xrand.New(0x9e3779b97f4a7c15)
	g := make([]float64, pairs)
	for i := range g {
		g[i] = math.Abs(d.Sample(rng) - d.Sample(rng))
	}
	sort.Float64s(g)
	ix := int(math.Ceil(beta*pairs)) - 1
	if ix < 0 {
		ix = 0
	}
	return g[ix]
}

// CentralMomentOf estimates E[(X-EX)^k] by Monte-Carlo with n draws from
// rng — for families whose analytic moments are awkward, and for checking
// the analytic ones.
func CentralMomentOf(d Distribution, rng *xrand.RNG, k, n int) float64 {
	xs := SampleN(d, rng, n)
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	m := 0.0
	for _, x := range xs {
		m += math.Pow(x-mean, float64(k))
	}
	return m / float64(n)
}

// centralMomentNumeric integrates ∫ (Q(u)-µ)^k du over u in (0,1) by the
// midpoint rule, clipping the extreme tails; used as the generic fallback
// for k > 2 where no closed form is wired up. Heavy-tailed families with
// divergent k-th moments return large finite values rather than +Inf —
// acceptable for a fallback no experiment relies on.
func centralMomentNumeric(d Distribution, k int) float64 {
	switch k {
	case 0:
		return 1
	case 1:
		return 0
	case 2:
		return d.Var()
	}
	mu := d.Mean()
	const cells = 200000
	s := 0.0
	for i := 0; i < cells; i++ {
		u := (float64(i) + 0.5) / cells
		s += math.Pow(d.Quantile(u)-mu, float64(k))
	}
	return s / cells
}

// invNormCDF returns the standard normal quantile Φ^{-1}(p) by Acklam's
// rational approximation refined with one Halley step against math.Erfc,
// giving ~1e-15 relative accuracy over (0, 1).
func invNormCDF(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: normal quantile with p %v outside (0,1)", p))
	}
	// Acklam coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// regIncBeta returns the regularized incomplete beta function I_x(a, b) by
// the standard continued-fraction expansion (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Lentz continued fraction.
	const tiny = 1e-300
	c, dn := 1.0, 0.0
	f := 1.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var num float64
		switch {
		case i == 0:
			num = 1
		case i%2 == 0:
			num = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			num = -(a + float64(m)) * (a + b + float64(m)) * x / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		dn = 1 + num*dn
		if math.Abs(dn) < tiny {
			dn = tiny
		}
		dn = 1 / dn
		c = 1 + num/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * dn
		if math.Abs(1-c*dn) < 1e-15 {
			break
		}
	}
	return front * (f - 1) / a
}

// studentTCDF returns P(T <= t) for Student-t with nu degrees of freedom.
func studentTCDF(t, nu float64) float64 {
	x := nu / (nu + t*t)
	tail := 0.5 * regIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// studentTQuantile inverts studentTCDF by bisection on a bracket grown
// geometrically from the Cauchy/normal envelopes.
func studentTQuantile(p, nu float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dist: t quantile with p %v outside (0,1)", p))
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1.0, 1.0
	for studentTCDF(lo, nu) > p {
		lo *= 2
	}
	for studentTCDF(hi, nu) < p {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-14*(1+math.Abs(lo)+math.Abs(hi)); i++ {
		mid := (lo + hi) / 2
		if studentTCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// doubleFactorial returns k!! for small non-negative k.
func doubleFactorial(k int) float64 {
	f := 1.0
	for ; k > 1; k -= 2 {
		f *= float64(k)
	}
	return f
}
