package dp

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// ---------- conversions ----------

func TestZCDPConversionsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ eps, delta float64 }{
		{0.1, 1e-6}, {1, 1e-6}, {1, 1e-9}, {4, 1e-5}, {0.01, 1e-6},
	} {
		rho := ZCDPRho(tc.eps, tc.delta)
		if !(rho > 0 && rho < tc.eps*tc.eps/2+1e-15) {
			t.Errorf("ZCDPRho(%v, %v) = %v, want in (0, eps^2/2]", tc.eps, tc.delta, rho)
		}
		back := ZCDPEpsilon(rho, tc.delta)
		if math.Abs(back-tc.eps) > 1e-9*tc.eps {
			t.Errorf("ZCDPEpsilon(ZCDPRho(%v,%v)) = %v, want %v", tc.eps, tc.delta, back, tc.eps)
		}
	}
	if got := PureToZCDP(2); got != 2 {
		t.Errorf("PureToZCDP(2) = %v, want 2", got)
	}
}

// Many small pure releases must be quadratically cheaper under zCDP: the
// whole point of the backend. With nominal (eps=1, delta=1e-6) and
// per-release eps0=0.01, basic composition affords 100 releases while the
// zCDP ledger affords rho_total/(eps0^2/2) >> 200.
func TestZCDPAffordsQuadraticallyMoreSmallReleases(t *testing.T) {
	const eps0 = 0.01
	basic, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	zcdp, err := NewZCDPLedger(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	count := func(l Ledger) int {
		n := 0
		for l.Spend(EpsCost(eps0)) == nil {
			n++
		}
		return n
	}
	nb, nz := count(basic), count(zcdp)
	if nb != 100 {
		t.Errorf("basic ledger afforded %d releases, want 100", nb)
	}
	if nz < 2*nb {
		t.Errorf("zCDP ledger afforded %d releases, want >= 2x basic's %d", nz, nb)
	}
}

// ---------- BasicLedger ----------

func TestBasicLedgerRefusesRhoAndResets(t *testing.T) {
	led, err := NewBasicLedger(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(EpsCost(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(EpsCost(1)); err != nil {
		t.Fatal(err)
	}
	if got := led.Spent(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Spent() = %v, want 1.5", got)
	}
	if led.Unit() != UnitEps {
		t.Errorf("Unit() = %v, want %v", led.Unit(), UnitEps)
	}
	if err := led.Spend(EpsCost(1)); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("overdraw: want ErrBudgetExhausted, got %v", err)
	}
	// A natively-zCDP cost has no pure-eps guarantee and must be refused
	// without touching the budget.
	if err := led.Spend(RhoCost(0.001)); !errors.Is(err, ErrUnsupportedCost) {
		t.Errorf("rho cost on pure ledger: want ErrUnsupportedCost, got %v", err)
	}
	if got := led.Spent(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("refused costs moved the ledger: spent %v", got)
	}
	led.Reset()
	if got := led.Remaining(); got != 2 {
		t.Errorf("Remaining() after Reset = %v, want 2", got)
	}
}

// ---------- ZCDPLedger ----------

func TestZCDPLedgerPricing(t *testing.T) {
	led, err := NewZCDPLedgerFromRho(0.01, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if led.Unit() != UnitRho {
		t.Errorf("Unit() = %v, want %v", led.Unit(), UnitRho)
	}
	// A pure release at eps=0.1 costs eps^2/2 = 0.005 in rho.
	if err := led.Spend(EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	if got := led.Spent(); math.Abs(got-0.005) > 1e-15 {
		t.Errorf("Spent() = %v, want 0.005", got)
	}
	// A native Gaussian release is charged its rho directly.
	if err := led.Spend(RhoCost(0.004)); err != nil {
		t.Fatal(err)
	}
	if got := led.Spent(); math.Abs(got-0.009) > 1e-15 {
		t.Errorf("Spent() = %v, want 0.009", got)
	}
	// Overdraw carries native units in the message.
	err = led.Spend(EpsCost(0.1))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if !strings.Contains(err.Error(), "rho=") || !strings.Contains(err.Error(), "zCDP") {
		t.Errorf("overdraw message lacks native units: %q", err.Error())
	}
	// Bad costs are rejected without charge.
	if err := led.Spend(EpsCost(-1)); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=-1: want ErrInvalidEpsilon, got %v", err)
	}
	if err := led.Spend(RhoCost(math.Inf(1))); !errors.Is(err, ErrInvalidRho) {
		t.Errorf("rho=+Inf: want ErrInvalidRho, got %v", err)
	}
	if got := led.Spent(); math.Abs(got-0.009) > 1e-15 {
		t.Errorf("rejected costs moved the ledger: spent %v", got)
	}
	// The (eps, delta) view grows with spend and never exceeds nominal.
	if se := led.SpentEpsilon(); !(se > 0 && se <= led.NominalEps()+1e-12) {
		t.Errorf("SpentEpsilon() = %v, nominal %v", se, led.NominalEps())
	}
}

func TestZCDPLedgerRejectsBadParams(t *testing.T) {
	if _, err := NewZCDPLedger(-1, 1e-6); !errors.Is(err, ErrInvalidEpsilon) {
		t.Errorf("eps=-1: got %v", err)
	}
	if _, err := NewZCDPLedger(1, 0); !errors.Is(err, ErrInvalidDelta) {
		t.Errorf("delta=0: got %v", err)
	}
	if _, err := NewZCDPLedger(1, 1.5); !errors.Is(err, ErrInvalidDelta) {
		t.Errorf("delta=1.5: got %v", err)
	}
	if _, err := NewZCDPLedgerFromRho(0, 1e-6); !errors.Is(err, ErrInvalidRho) {
		t.Errorf("rho=0: got %v", err)
	}
}

// Racing spenders must never jointly overdraw the rho budget: with a
// budget of exactly k releases, exactly k of k+extra succeed. Run with
// -race; the point is the atomic check-and-deduct.
func TestZCDPLedgerConcurrentSpendExact(t *testing.T) {
	const (
		k     = 64
		extra = 64
		rho0  = 1e-4
	)
	led, err := NewZCDPLedgerFromRho(k*rho0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var succeeded, refused atomic.Int64
	for i := 0; i < k+extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the spenders charge natively in rho, half charge pure
			// releases priced at exactly rho0 = eps^2/2.
			var err error
			if i%2 == 0 {
				err = led.Spend(RhoCost(rho0))
			} else {
				err = led.Spend(EpsCost(math.Sqrt(2 * rho0)))
			}
			switch {
			case err == nil:
				succeeded.Add(1)
			case errors.Is(err, ErrBudgetExhausted):
				refused.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if succeeded.Load() != k || refused.Load() != extra {
		t.Errorf("succeeded=%d refused=%d, want %d/%d", succeeded.Load(), refused.Load(), k, extra)
	}
	if got := led.Spent(); math.Abs(got-k*rho0) > 1e-12 {
		t.Errorf("Spent() = %v, want %v", got, k*rho0)
	}
}

// ---------- WindowedLedger ----------

// fakeClock is a race-safe test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWindowedLedgerRefills(t *testing.T) {
	inner, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewWindowedLedger(inner, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	led.SetNow(clk.Now)

	if err := led.Spend(EpsCost(1)); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(EpsCost(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want exhausted within window, got %v", err)
	}
	// One window tick later the budget is whole again.
	clk.Advance(61 * time.Second)
	if got := led.Remaining(); got != 1 {
		t.Errorf("Remaining() after tick = %v, want 1", got)
	}
	if err := led.Spend(EpsCost(0.75)); err != nil {
		t.Errorf("post-refill spend: %v", err)
	}
	// Several missed windows refill once, and boundaries stay aligned.
	clk.Advance(10 * time.Minute)
	if got := led.Spent(); got != 0 {
		t.Errorf("Spent() after long gap = %v, want 0", got)
	}
	if led.Unit() != UnitEps || led.Total() != 1 {
		t.Errorf("Unit/Total = %v/%v, want eps/1", led.Unit(), led.Total())
	}
	if _, err := NewWindowedLedger(inner, 0); !errors.Is(err, ErrInvalidWindow) {
		t.Errorf("window=0: got %v", err)
	}
}

func TestWindowedLedgerOverZCDP(t *testing.T) {
	inner, err := NewZCDPLedgerFromRho(0.001, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewWindowedLedger(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	led.SetNow(clk.Now)
	if err := led.Spend(RhoCost(0.001)); err != nil {
		t.Fatal(err)
	}
	if err := led.Spend(RhoCost(0.001)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want exhausted, got %v", err)
	}
	clk.Advance(2 * time.Hour)
	if err := led.Spend(RhoCost(0.001)); err != nil {
		t.Errorf("post-refill native spend: %v", err)
	}
	if led.Unit() != UnitRho {
		t.Errorf("Unit() = %v, want rho", led.Unit())
	}
}

// Refills racing spends must stay consistent: within any single window the
// inner ledger may never overdraw, no matter how the clock advances. Run
// with -race.
func TestWindowedLedgerConcurrentRefillVsSpend(t *testing.T) {
	inner, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewWindowedLedger(inner, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	led.SetNow(clk.Now)

	const spenders = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < spenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := led.Spend(EpsCost(0.3))
				if err != nil && !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("unexpected spend error: %v", err)
					return
				}
				// The inner ledger must never report more spent than total
				// (with the boundary tolerance): a refill racing a spend
				// would show up here or under -race.
				if sp := led.Spent(); sp > led.Total()*(1+1e-9) {
					t.Errorf("overdraw: spent %v > total %v", sp, led.Total())
					return
				}
			}
		}()
	}
	// Tick the clock across ~50 window boundaries while the spenders run.
	for i := 0; i < 50; i++ {
		clk.Advance(1100 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// ---------- Gaussian mechanism ----------

func TestGaussianMechanismCalibration(t *testing.T) {
	// sigma = sens/sqrt(2 rho): spot-check the formula and the moments.
	if got := GaussianSigma(1, 0.5); math.Abs(got-1) > 1e-15 {
		t.Fatalf("GaussianSigma(1, 0.5) = %v, want 1", got)
	}
	rng := xrand.New(11)
	const (
		n    = 200000
		rho  = 0.125 // sigma = 2
		want = 2.0
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := Gaussian(rng, 0, 1, rho)
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(std-want) > 0.02 {
		t.Errorf("Gaussian std = %v, want ~%v", std, want)
	}
}
