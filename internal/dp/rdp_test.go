package dp

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ---------- curve and conversion fixtures ----------

// A single Gaussian release at known ρ must register exactly ρα at every
// grid order, and the (ε, δ) view must be the hand-computed min over the
// grid of ρα + ln(1/δ)/(α−1).
func TestRDPSingleGaussianFixture(t *testing.T) {
	const (
		rho   = 0.01
		delta = 1e-6
	)
	orders := []float64{2, 4, 8, 16}
	led, err := NewRDPLedger(4, delta, orders)
	if err != nil {
		t.Fatal(err)
	}
	if led.Unit() != UnitRDP {
		t.Fatalf("Unit() = %v, want rdp", led.Unit())
	}
	if got := led.Spent(); got != 0 {
		t.Fatalf("zero-release Spent() = %v, want exactly 0", got)
	}
	if err := led.Spend(RhoCost(rho)); err != nil {
		t.Fatal(err)
	}
	spent := led.SpentByOrder()
	for i, a := range orders {
		if want := rho * a; math.Abs(spent[i]-want) > 1e-15 {
			t.Errorf("spent at alpha=%v: %v, want %v", a, spent[i], want)
		}
	}
	// Hand-computed conversion: min over the grid of ρα + L/(α−1).
	l := math.Log(1 / delta)
	want := math.Inf(1)
	wantAlpha := 0.0
	for _, a := range orders {
		if e := rho*a + l/(a-1); e < want {
			want, wantAlpha = e, a
		}
	}
	if got := led.Spent(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Spent() = %v, want hand-computed %v", got, want)
	}
	if got := led.BestOrder(); got != wantAlpha {
		t.Errorf("BestOrder() = %v, want %v", got, wantAlpha)
	}
	if got, want := led.Remaining(), 4-want; math.Abs(got-want) > 1e-12 {
		t.Errorf("Remaining() = %v, want %v", got, want)
	}
}

// Composition of k identical releases is exactly k times the one-release
// curve, per order (Mironov 2017, Proposition 1 — RDP composes by
// addition at each α).
func TestRDPCompositionIsKTimesCurve(t *testing.T) {
	const k = 7
	one, err := NewRDPLedger(100, 1e-6, nil) // huge budget: nothing refused
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewRDPLedger(100, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := []Cost{EpsCost(0.3), RhoCost(0.002)}
	for _, c := range costs {
		if err := one.Spend(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		for _, c := range costs {
			if err := many.Spend(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	oneV, manyV := one.SpentByOrder(), many.SpentByOrder()
	for i, a := range one.Orders() {
		if want := float64(k) * oneV[i]; math.Abs(manyV[i]-want) > 1e-12*want {
			t.Errorf("alpha=%v: k releases spent %v, want k*curve = %v", a, manyV[i], want)
		}
	}
}

// The pure-DP pricing must be sound and strictly tighter than the αε²/2
// line zCDP uses, and capped by ε itself.
func TestPureRDPBounds(t *testing.T) {
	for _, tc := range []struct{ alpha, eps float64 }{
		{1.25, 0.001}, {2, 0.01}, {16, 0.05}, {64, 0.005}, {256, 0.001}, {2000, 0.1},
	} {
		got := PureRDP(tc.alpha, tc.eps)
		if !(got > 0) {
			t.Errorf("PureRDP(%v, %v) = %v, want > 0", tc.alpha, tc.eps, got)
		}
		if got > tc.eps {
			t.Errorf("PureRDP(%v, %v) = %v exceeds the D-infinity cap %v", tc.alpha, tc.eps, got, tc.eps)
		}
		if line := tc.alpha * tc.eps * tc.eps / 2; got >= line && got != tc.eps {
			t.Errorf("PureRDP(%v, %v) = %v not below the zCDP line %v", tc.alpha, tc.eps, got, line)
		}
	}
	// Huge αε must not overflow (the log-space sinh identity).
	if got := PureRDP(1e6, 1); math.IsInf(got, 1) || math.IsNaN(got) || got > 1 {
		t.Errorf("PureRDP(1e6, 1) = %v, want finite <= 1", got)
	}
}

// RDPEpsilon against a fully hand-computed fixture.
func TestRDPEpsilonFixture(t *testing.T) {
	orders := []float64{2, 4}
	spent := []float64{0.1, 0.2}
	l := math.Log(1e6)
	// min(0.1 + L/1, 0.2 + L/3): L=13.8..., so alpha=4 wins.
	want := 0.2 + l/3
	got, alpha := RDPEpsilon(orders, spent, 1e-6)
	if math.Abs(got-want) > 1e-12 || alpha != 4 {
		t.Errorf("RDPEpsilon = (%v, %v), want (%v, 4)", got, alpha, want)
	}
	// All-zero spend reads exactly 0.
	if e, a := RDPEpsilon(orders, []float64{0, 0}, 1e-6); e != 0 || a != 0 {
		t.Errorf("zero spend = (%v, %v), want (0, 0)", e, a)
	}
}

// ---------- budget enforcement ----------

// Budget exhaustion surfaces as ErrBudgetExhausted via errors.Is with the
// native accounting named in the message, mirroring the Basic and ZCDP
// tests.
func TestRDPLedgerBudgetExhaustion(t *testing.T) {
	led, err := NewRDPLedger(0.5, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	releases := 0
	for i := 0; i < 100000; i++ {
		if lastErr = led.Spend(EpsCost(0.005)); lastErr != nil {
			break
		}
		releases++
	}
	if !errors.Is(lastErr, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", lastErr)
	}
	if !strings.Contains(lastErr.Error(), "RDP") || !strings.Contains(lastErr.Error(), "alpha") {
		t.Errorf("overdraw message lacks native accounting: %q", lastErr.Error())
	}
	// Quadratically more than the pure count of 100, like zCDP.
	if releases < 200 {
		t.Errorf("rdp afforded %d releases at eps0=0.005 under nominal 0.5, want >= 200", releases)
	}
	// Exhausted means the (ε, δ) view is at (or within rounding of) the
	// nominal target and Remaining is ~0.
	if led.Spent() > led.Total()*(1+1e-9) {
		t.Errorf("Spent() = %v exceeded nominal %v", led.Spent(), led.Total())
	}
	// Bad costs are rejected without charge.
	before := led.SpentByOrder()
	if err := led.Spend(EpsCost(-1)); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=-1: want ErrInvalidEpsilon, got %v", err)
	}
	if err := led.Spend(RhoCost(math.Inf(1))); !errors.Is(err, ErrInvalidRho) {
		t.Errorf("rho=+Inf: want ErrInvalidRho, got %v", err)
	}
	after := led.SpentByOrder()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rejected costs moved the ledger at order %d: %v -> %v", i, before[i], after[i])
		}
	}
	led.Reset()
	if led.Spent() != 0 || led.Remaining() != 0.5 {
		t.Errorf("after Reset: spent %v remaining %v", led.Spent(), led.Remaining())
	}
}

func TestRDPLedgerRejectsBadParams(t *testing.T) {
	if _, err := NewRDPLedger(-1, 1e-6, nil); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=-1: got %v", err)
	}
	if _, err := NewRDPLedger(1, 0, nil); !errors.Is(err, ErrInvalidDelta) {
		t.Errorf("delta=0: got %v", err)
	}
	if _, err := NewRDPLedger(1, 1e-6, []float64{1}); !errors.Is(err, ErrInvalidOrder) {
		t.Errorf("order=1: got %v", err)
	}
	if _, err := NewRDPLedger(1, 1e-6, []float64{0.5, 2}); !errors.Is(err, ErrInvalidOrder) {
		t.Errorf("order=0.5: got %v", err)
	}
	// A grid whose largest order cannot certify the target is refused at
	// construction with actionable guidance, not at the first Spend.
	if _, err := NewRDPLedger(0.01, 1e-6, []float64{2, 4}); !errors.Is(err, ErrNoUsableOrder) {
		t.Errorf("uncertifiable grid: got %v", err)
	}
	// A grid extended past the optimal order certifies the same target.
	if _, err := NewRDPLedger(0.01, 1e-6, ordersPastOptimum(0.01, 1e-6)); err != nil {
		t.Errorf("extended grid still uncertifiable: %v", err)
	}
}

// ---------- the headline ordering: rdp >= zcdp >= pure ----------

// ordersPastOptimum extends DefaultRDPOrders geometrically until it
// brackets twice the optimal conversion order α* = 1 + sqrt(ln(1/δ)/ρ)
// with ρ = ZCDPRho(ε, δ): a grid that stops short of α* pays a
// discretization penalty that can leave RDP looser than zCDP.
func ordersPastOptimum(eps, delta float64) []float64 {
	orders := DefaultRDPOrders()
	target := 2 * (1 + math.Sqrt(math.Log(1/delta)/ZCDPRho(eps, delta)))
	for a := orders[len(orders)-1]; a < target; {
		a *= 1.15
		orders = append(orders, a)
	}
	return orders
}

// On a mixed Laplace+Gaussian stream with the same nominal (ε, δ)
// budget, the RDP ledger sustains at least as many releases as the zCDP
// ledger, which sustains more than the pure one — the deterministic core
// of the serve-level three-way duel, TestRDPTenantSustainsMostReleases.
// The pure ledger cannot express the Gaussian at all, so its stream
// charges the count in ε instead.
func TestRDPOutlastsZCDPOnMixedWorkload(t *testing.T) {
	const (
		nominal = 0.5
		delta   = 1e-6
		eps0    = 0.005
		rho0    = eps0 * eps0 / 2 // the zCDP price of eps0, so both streams match
	)
	basic, err := NewBasicLedger(nominal)
	if err != nil {
		t.Fatal(err)
	}
	zcdp, err := NewZCDPLedger(nominal, delta)
	if err != nil {
		t.Fatal(err)
	}
	rdp, err := NewRDPLedger(nominal, delta, ordersPastOptimum(nominal, delta))
	if err != nil {
		t.Fatal(err)
	}
	count := func(l Ledger, gaussianNative bool) int {
		n := 0
		for i := 0; i < 1000000; i++ {
			c := EpsCost(eps0)
			if i%2 == 1 && gaussianNative {
				c = RhoCost(rho0)
			}
			if l.Spend(c) != nil {
				return n
			}
			n++
		}
		return -1
	}
	nPure := count(basic, false)
	nZCDP := count(zcdp, true)
	nRDP := count(rdp, true)
	t.Logf("mixed workload sustained: pure=%d zcdp=%d rdp=%d", nPure, nZCDP, nRDP)
	if nPure != 100 {
		t.Errorf("pure sustained %d, want exactly nominal/eps0 = 100", nPure)
	}
	if nZCDP < 2*nPure {
		t.Errorf("zcdp sustained %d, want >= 2x pure's %d", nZCDP, nPure)
	}
	if nRDP < nZCDP {
		t.Errorf("rdp sustained %d < zcdp's %d — the generalized backend must never be looser", nRDP, nZCDP)
	}
}

// Racing spenders must never jointly overdraw: with a budget of exactly
// k releases at one order-independent price, exactly k of k+extra
// succeed. Run with -race.
func TestRDPLedgerConcurrentSpendExact(t *testing.T) {
	const (
		k     = 64
		extra = 64
		rho0  = 1e-4
	)
	// Single order 2: budget(2) = eps − L/(2−1); pick eps so the order-2
	// ceiling is exactly k·2ρ₀ — every Gaussian release costs exactly 2ρ₀
	// there, so the arithmetic is exact like the zCDP twin test.
	delta := 1e-6
	eps := k*2*rho0 + math.Log(1/delta)
	led, err := NewRDPLedger(eps, delta, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var succeeded, refused atomic.Int64
	for i := 0; i < k+extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch err := led.Spend(RhoCost(rho0)); {
			case err == nil:
				succeeded.Add(1)
			case errors.Is(err, ErrBudgetExhausted):
				refused.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if succeeded.Load() != k || refused.Load() != extra {
		t.Errorf("succeeded=%d refused=%d, want %d/%d", succeeded.Load(), refused.Load(), k, extra)
	}
	if got := led.SpentByOrder()[0]; math.Abs(got-k*2*rho0) > 1e-12 {
		t.Errorf("spent at order 2 = %v, want %v", got, k*2*rho0)
	}
}
