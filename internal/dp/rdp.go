package dp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the Rényi-DP composition backend: accounting over a grid
// of Rényi orders α > 1 (Mironov 2017), where every release is priced as
// a full RDP curve ε(α), the ledger composes per-order vectors by
// addition, and the scalar budget view is the optimal (ε, δ)-DP
// conversion — min over α of the standard RDP→DP bound. RDP subsumes the
// zCDP backend (ρ-zCDP is exactly the linear curve ε(α) = ρα) and is
// strictly tighter on mixed workloads, because the pure-DP→RDP bound it
// prices Laplace releases with (Bun & Steinke 2016, Proposition 3.3)
// lies strictly below the αε²/2 line zCDP is forced to use.

// Rényi-order errors.
var (
	// ErrInvalidOrder reports a Rényi order outside (1, ∞).
	ErrInvalidOrder = errors.New("dp: Rényi order must be > 1 and finite")
	// ErrNoUsableOrder reports an order grid on which no α can certify
	// the requested (ε, δ) target: every order's conversion overhead
	// ln(1/δ)/(α−1) already exceeds ε. The fix is a grid with larger
	// orders or a larger ε.
	ErrNoUsableOrder = errors.New("dp: no Rényi order can certify the (eps, delta) target; extend the order grid to larger alpha")
)

// maxRDPOrders bounds the order grid; past this, per-release pricing and
// the status payload cost more than finer conversion wins.
const maxRDPOrders = 1024

// DefaultRDPOrders returns the default Rényi order grid, α from 1.25 to
// 64: dense near 1 (where small-δ conversions of large budgets land) and
// geometric above. The optimal conversion order for a target (ε, δ) is
// α* ≈ 1 + sqrt(ln(1/δ)/ρ) with ρ = ZCDPRho(ε, δ); when that exceeds 64
// — small ε at small δ — pass a grid that extends past α*: a grid that
// stops short of it pays a discretization penalty that can leave RDP
// looser than zCDP.
func DefaultRDPOrders() []float64 {
	return []float64{
		1.25, 1.5, 1.75, 2, 2.25, 2.5, 2.75, 3, 3.5, 4, 4.5, 5,
		6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64,
	}
}

// lnCosh computes ln(cosh(x)) without overflow: x + ln(1+e^(−2x)) − ln 2.
func lnCosh(x float64) float64 {
	if x < 0 {
		x = -x
	}
	return x + math.Log1p(math.Exp(-2*x)) - math.Ln2
}

// PureRDP prices a pure ε-DP release at Rényi order α: the minimum of the
// trivial bound ε (Rényi divergence is dominated by D∞) and the tight
// randomized-response bound of Bun & Steinke 2016, Proposition 3.3,
//
//	(1/(α−1)) · ln( (sinh(αε) − sinh((α−1)ε)) / sinh(ε) ),
//
// evaluated in log-space via sinh a − sinh b = 2·cosh((a+b)/2)·sinh((a−b)/2)
// so large αε cannot overflow. The bound lies strictly below the αε²/2
// line the zCDP backend prices pure releases with, which is exactly where
// the RDP ledger's advantage on Laplace-heavy workloads comes from.
func PureRDP(alpha, eps float64) float64 {
	if alpha <= 1 || eps <= 0 {
		return math.Inf(1)
	}
	// sinh(αε)−sinh((α−1)ε) = 2·cosh((2α−1)ε/2)·sinh(ε/2) and
	// sinh(ε) = 2·sinh(ε/2)·cosh(ε/2), so the ratio is
	// cosh((2α−1)ε/2)/cosh(ε/2).
	bs := (lnCosh((2*alpha-1)*eps/2) - lnCosh(eps/2)) / (alpha - 1)
	return math.Min(eps, bs)
}

// GaussianRDP prices a ρ-zCDP release (the Gaussian mechanism) at Rényi
// order α: ε(α) = ρα, the defining curve of zCDP (Bun & Steinke 2016).
func GaussianRDP(alpha, rho float64) float64 { return rho * alpha }

// RDPToDP converts one point of an RDP guarantee into approximate DP:
// (α, εα)-RDP implies (εα + ln(1/δ)/(α−1), δ)-DP for every δ in (0, 1)
// (Mironov 2017, Proposition 3). The ledger takes the min over its grid.
func RDPToDP(epsAlpha, alpha, delta float64) float64 {
	return epsAlpha + math.Log(1/delta)/(alpha-1)
}

// RDPEpsilon is the optimal (ε, δ)-DP reading of a composed per-order
// spend vector: min over the grid of RDPToDP, with an all-zero spend
// reading exactly 0 (no release has happened). It also reports the
// arg-min order — the α currently doing the certifying (0 when spend is
// zero).
func RDPEpsilon(orders, spent []float64, delta float64) (eps, bestOrder float64) {
	zero := true
	for _, s := range spent {
		if s != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0, 0
	}
	eps = math.Inf(1)
	for i, a := range orders {
		if e := RDPToDP(spent[i], a, delta); e < eps {
			eps, bestOrder = e, a
		}
	}
	return eps, bestOrder
}

// checkOrders validates, sorts, and dedupes an order grid.
func checkOrders(orders []float64) ([]float64, error) {
	if len(orders) == 0 {
		orders = DefaultRDPOrders()
	}
	if len(orders) > maxRDPOrders {
		return nil, fmt.Errorf("%w: %d orders exceeds the cap %d", ErrInvalidOrder, len(orders), maxRDPOrders)
	}
	out := make([]float64, 0, len(orders))
	for _, a := range orders {
		if !(a > 1) || math.IsInf(a, 1) || math.IsNaN(a) {
			return nil, fmt.Errorf("%w: got %v", ErrInvalidOrder, a)
		}
		out = append(out, a)
	}
	sort.Float64s(out)
	dedup := out[:1]
	for _, a := range out[1:] {
		if a != dedup[len(dedup)-1] {
			dedup = append(dedup, a)
		}
	}
	return dedup, nil
}

// RDPLedger accounts in Rényi DP over a fixed grid of orders: every
// release contributes its full RDP curve sampled at the grid, the
// per-order spends add under composition (Mironov 2017, Proposition 1),
// and a release is affordable while at least one order's accumulated
// spend still converts to at most the nominal ε at the ledger's δ. The
// scalar Ledger views (Spent, Remaining, Total) report the (ε, δ)-DP
// conversion — the number an operator compares against the nominal
// target; SpentByOrder exposes the native per-order vector.
//
// Pricing: a pure ε cost contributes PureRDP(α, ε) at each order and a
// native ρ cost (Gaussian) contributes ρα.
type RDPLedger struct {
	mu     sync.Mutex
	orders []float64 // ascending, > 1
	spent  []float64 // per-order cumulative RDP spend
	budget []float64 // per-order ceilings: ε − ln(1/δ)/(α−1); ≤ 0 means unusable
	eps    float64   // nominal ε target
	delta  float64
}

// NewRDPLedger returns an RDP ledger targeting (eps, delta)-DP over the
// given order grid (nil or empty means DefaultRDPOrders). It fails with
// ErrNoUsableOrder when no order on the grid can certify the target even
// at zero spend — the grid needs larger α (see DefaultRDPOrders).
func NewRDPLedger(eps, delta float64, orders []float64) (*RDPLedger, error) {
	if err := CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := CheckDelta(delta); err != nil {
		return nil, err
	}
	grid, err := checkOrders(orders)
	if err != nil {
		return nil, err
	}
	l := &RDPLedger{
		orders: grid,
		spent:  make([]float64, len(grid)),
		budget: make([]float64, len(grid)),
		eps:    eps,
		delta:  delta,
	}
	usable := false
	for i, a := range grid {
		l.budget[i] = eps - math.Log(1/delta)/(a-1)
		if l.budget[i] > 0 {
			usable = true
		}
	}
	if !usable {
		return nil, fmt.Errorf("%w: max order %v gives conversion overhead %v > eps %v at delta %v",
			ErrNoUsableOrder, grid[len(grid)-1], math.Log(1/delta)/(grid[len(grid)-1]-1), eps, delta)
	}
	return l, nil
}

// curve prices a cost as a per-order RDP vector.
func (l *RDPLedger) curve(c Cost) ([]float64, error) {
	v := make([]float64, len(l.orders))
	switch {
	case c.Rho != 0:
		if err := CheckRho(c.Rho); err != nil {
			return nil, err
		}
		for i, a := range l.orders {
			v[i] = GaussianRDP(a, c.Rho)
		}
	default:
		if err := CheckEpsilon(c.Eps); err != nil {
			return nil, err
		}
		for i, a := range l.orders {
			v[i] = PureRDP(a, c.Eps)
		}
	}
	return v, nil
}

// Spend atomically charges one release: the cost's RDP curve is added to
// every order, and the charge is affordable while at least one order
// stays within its per-order ceiling ε − ln(1/δ)/(α−1) — equivalently,
// while the composed spend still converts to at most the nominal (ε, δ).
func (l *RDPLedger) Spend(c Cost) error {
	v, err := l.curve(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ok := false
	for i := range l.orders {
		// Tolerate float rounding at the boundary, as the other backends do.
		if l.budget[i] > 0 && l.spent[i]+v[i] <= l.budget[i]*(1+1e-12) {
			ok = true
			break
		}
	}
	if !ok {
		spentEps, _ := RDPEpsilon(l.orders, l.spent, l.delta)
		return fmt.Errorf("%w: spent eps(delta)=%v + requested %v > total eps=%v (RDP over %d orders alpha in [%v, %v], delta=%v)",
			ErrBudgetExhausted, spentEps, c, l.eps, len(l.orders), l.orders[0], l.orders[len(l.orders)-1], l.delta)
	}
	for i := range l.spent {
		l.spent[i] += v[i]
	}
	return nil
}

// Remaining reports the unspent budget in the (ε, δ) view: nominal ε
// minus the conversion of the spend so far (never negative).
func (l *RDPLedger) Remaining() float64 {
	r := l.eps - l.Spent()
	if r < 0 {
		return 0
	}
	return r
}

// Spent reports the spend so far in the (ε, δ) view: the optimal
// conversion min over α of spent(α) + ln(1/δ)/(α−1), exactly 0 before
// the first release.
func (l *RDPLedger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, _ := RDPEpsilon(l.orders, l.spent, l.delta)
	return e
}

// Total reports the nominal ε target — the (ε, δ)-DP guarantee that
// holds even when the ledger is fully spent.
func (l *RDPLedger) Total() float64 { return l.eps }

// Unit reports Rényi-DP accounting. The scalar views (Spent, Remaining,
// Total) are in converted (ε, δ)-DP units at the ledger's δ; the native
// state is the per-order vector (SpentByOrder).
func (l *RDPLedger) Unit() Unit { return UnitRDP }

// Reset refills the budget: the per-order spend vector zeroes.
func (l *RDPLedger) Reset() {
	l.mu.Lock()
	for i := range l.spent {
		l.spent[i] = 0
	}
	l.mu.Unlock()
}

// Delta reports the approximation parameter the conversion uses.
func (l *RDPLedger) Delta() float64 { return l.delta }

// NominalEps reports the ε target (same number as Total, named for
// symmetry with ZCDPLedger).
func (l *RDPLedger) NominalEps() float64 { return l.eps }

// SpentEpsilon reports the (ε, δ)-DP conversion of the spend so far —
// the same number as Spent, named for symmetry with ZCDPLedger.
func (l *RDPLedger) SpentEpsilon() float64 { return l.Spent() }

// Orders returns the ledger's order grid (ascending; a copy).
func (l *RDPLedger) Orders() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.orders...)
}

// SpentByOrder returns the native per-order RDP spend vector, parallel
// to Orders (a copy).
func (l *RDPLedger) SpentByOrder() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.spent...)
}

// BestOrder reports the order whose conversion currently certifies the
// spend — the arg-min α of the (ε, δ) view — or 0 before the first
// release.
func (l *RDPLedger) BestOrder() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, a := RDPEpsilon(l.orders, l.spent, l.delta)
	return a
}
