package dp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// This file is the pluggable composition layer: every release path in the
// repository (updp.Estimator, dpsql.DB, the serve tenants) charges its
// privacy cost to a Ledger, so the composition theorem in force — basic
// composition of pure ε (Lemma 2.2), zCDP composition (Bun & Steinke
// 2016), Rényi composition, or a renewable window over any of them — is a
// per-ledger choice instead of a repository-wide constant.

// Ledger errors.
var (
	// ErrInvalidRho reports a non-positive or non-finite zCDP budget.
	ErrInvalidRho = errors.New("dp: rho must be positive and finite")
	// ErrInvalidDelta reports an approximation parameter outside (0, 1).
	ErrInvalidDelta = errors.New("dp: delta must be in (0, 1)")
	// ErrUnsupportedCost reports a release whose cost the ledger's
	// composition backend cannot account (e.g. a natively-zCDP Gaussian
	// release charged to a pure-ε ledger: the Gaussian mechanism satisfies
	// no finite pure-ε guarantee, so a pure ledger must refuse it).
	ErrUnsupportedCost = errors.New("dp: cost not representable in this ledger's composition backend")
	// ErrInvalidWindow reports a non-positive refill window.
	ErrInvalidWindow = errors.New("dp: refill window must be positive")
)

// CheckRho validates a zCDP budget.
func CheckRho(rho float64) error {
	if !(rho > 0) || math.IsInf(rho, 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidRho, rho)
	}
	return nil
}

// CheckDelta validates an approximation parameter.
func CheckDelta(delta float64) error {
	if !(delta > 0 && delta < 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidDelta, delta)
	}
	return nil
}

// Unit names a ledger's native accounting unit.
type Unit string

// Accounting units.
const (
	// UnitEps is pure-DP ε (basic composition).
	UnitEps Unit = "eps"
	// UnitRho is zero-concentrated-DP ρ.
	UnitRho Unit = "rho"
	// UnitRDP is Rényi-DP accounting over an order grid. The native state
	// is a per-order vector (RDPLedger.SpentByOrder); the scalar Ledger
	// views are the optimal (ε, δ)-DP conversion at the ledger's δ.
	UnitRDP Unit = "rdp"
)

// Cost is the privacy price of one release, in the units the mechanism's
// guarantee is stated in: pure-ε-DP mechanisms (Laplace, exponential, SVT
// — everything the paper builds on) carry Eps; natively-zCDP mechanisms
// (Gaussian) carry Rho. Exactly one is set; each ledger converts the cost
// into its own unit, or refuses it when no sound conversion exists (a
// pure-ε ledger cannot account ρ).
type Cost struct {
	Eps float64 `json:"eps,omitempty"` // pure-DP ε (zero when the release is charged in ρ)
	Rho float64 `json:"rho,omitempty"` // zCDP ρ (zero when the release is charged in ε)
}

// EpsCost is the cost of a pure ε-DP release.
func EpsCost(eps float64) Cost { return Cost{Eps: eps} }

// RhoCost is the cost of a natively ρ-zCDP release.
func RhoCost(rho float64) Cost { return Cost{Rho: rho} }

// String renders the cost in its native unit.
func (c Cost) String() string {
	if c.Rho != 0 {
		return fmt.Sprintf("rho=%v", c.Rho)
	}
	return fmt.Sprintf("eps=%v", c.Eps)
}

// Ledger is a composition backend: it prices releases, enforces a total
// budget with an atomic check-and-deduct, and reports spend in its native
// unit (Unit). Implementations must be safe for concurrent use — racing
// Spend calls may never jointly overdraw, the property every multi-release
// caller (Estimator, dpsql, the serve tenants) rests on.
type Ledger interface {
	// Spend atomically charges one release, failing with a wrapped
	// ErrBudgetExhausted (message in native units) on overdraw and with
	// ErrUnsupportedCost when the backend cannot soundly account the cost.
	Spend(c Cost) error
	// Remaining reports the unspent budget in native units (never negative).
	Remaining() float64
	// Spent reports the cumulative spend in native units.
	Spent() float64
	// Total reports the budget ceiling in native units.
	Total() float64
	// Unit names the native accounting unit.
	Unit() Unit
	// Reset refills the budget to Total (the windowed decorator's refill
	// primitive; it is NOT free post-processing — only a policy layer that
	// deliberately renews budgets, like WindowedLedger, may call it).
	Reset()
}

// ---------- conversions (Bun & Steinke 2016) ----------

// PureToZCDP converts a pure ε-DP guarantee into zCDP: an ε-DP mechanism
// satisfies (ε²/2)-zCDP (Bun & Steinke, Proposition 1.4). This is how a
// zCDP ledger prices the repository's Laplace-based releases.
func PureToZCDP(eps float64) float64 { return eps * eps / 2 }

// ZCDPEpsilon converts a ρ-zCDP guarantee into approximate DP: ρ-zCDP
// implies (ρ + 2·sqrt(ρ·ln(1/δ)), δ)-DP for every δ in (0, 1)
// (Bun & Steinke, Proposition 1.3).
func ZCDPEpsilon(rho, delta float64) float64 {
	if rho <= 0 {
		return 0
	}
	return rho + 2*math.Sqrt(rho*math.Log(1/delta))
}

// ZCDPRho inverts ZCDPEpsilon: the largest ρ whose zCDP guarantee still
// implies (eps, delta)-DP. Solving ρ + 2·sqrt(ρ·L) = ε with L = ln(1/δ)
// for sqrt(ρ) gives sqrt(ρ) = sqrt(L+ε) − sqrt(L).
func ZCDPRho(eps, delta float64) float64 {
	l := math.Log(1 / delta)
	s := math.Sqrt(l+eps) - math.Sqrt(l)
	return s * s
}

// ---------- BasicLedger: pure-ε basic composition ----------

// BasicLedger is the pure-ε composition backend (Lemma 2.2): costs add
// linearly and only pure-DP releases are accepted. Spend is an atomic
// check-and-deduct, so racing goroutines can never jointly overdraw the
// budget — the property the serve layer's per-tenant enforcement rests on.
type BasicLedger struct {
	mu    sync.Mutex
	total float64
	spent float64
}

// NewBasicLedger returns a pure-ε ledger with the given total budget.
func NewBasicLedger(totalEps float64) (*BasicLedger, error) {
	if err := CheckEpsilon(totalEps); err != nil {
		return nil, err
	}
	return &BasicLedger{total: totalEps}, nil
}

// pureEps validates a cost for the pure-ε backend. A native ρ cost is
// refused: the Gaussian mechanism has no finite pure-ε guarantee.
func pureEps(c Cost) (float64, error) {
	if c.Rho != 0 {
		return 0, fmt.Errorf("%w: pure-eps ledger cannot account a %v cost", ErrUnsupportedCost, c)
	}
	if err := CheckEpsilon(c.Eps); err != nil {
		return 0, err
	}
	return c.Eps, nil
}

// Spend charges a pure-ε release under basic composition.
func (l *BasicLedger) Spend(c Cost) error {
	eps, err := pureEps(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Tolerate float rounding at the boundary.
	if l.spent+eps > l.total*(1+1e-12) {
		return fmt.Errorf("%w: spent %v + requested %v > total %v",
			ErrBudgetExhausted, l.spent, eps, l.total)
	}
	l.spent += eps
	return nil
}

// Remaining reports the unspent ε (never negative).
func (l *BasicLedger) Remaining() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.total - l.spent
	if r < 0 {
		return 0
	}
	return r
}

// Spent reports the cumulative ε spend.
func (l *BasicLedger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent
}

// Total reports the ε ceiling.
func (l *BasicLedger) Total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Unit reports pure-DP ε.
func (l *BasicLedger) Unit() Unit { return UnitEps }

// Reset refills the budget to Total.
func (l *BasicLedger) Reset() {
	l.mu.Lock()
	l.spent = 0
	l.mu.Unlock()
}

// ---------- ZCDPLedger: zero-concentrated DP composition ----------

// ZCDPLedger accounts in zCDP ρ, where composition is additive in ρ and a
// pure ε-DP release costs only ε²/2 (PureToZCDP) — so k releases at ε₀
// each cost k·ε₀²/2 instead of k·ε₀, a quadratic win for the many-small-
// releases traffic a long-lived service sees. Natively-zCDP mechanisms
// (Gaussian) are charged their ρ directly. The total is derived from a
// nominal (ε, δ) target via ZCDPRho, so exhausting the ledger never
// exceeds (ε, δ)-DP overall.
type ZCDPLedger struct {
	mu       sync.Mutex
	totalRho float64
	spentRho float64
	eps      float64 // nominal ε the budget was derived from
	delta    float64
}

// NewZCDPLedger returns a ρ-ledger whose total is the largest ρ still
// implying (eps, delta)-DP.
func NewZCDPLedger(eps, delta float64) (*ZCDPLedger, error) {
	if err := CheckEpsilon(eps); err != nil {
		return nil, err
	}
	if err := CheckDelta(delta); err != nil {
		return nil, err
	}
	return &ZCDPLedger{totalRho: ZCDPRho(eps, delta), eps: eps, delta: delta}, nil
}

// NewZCDPLedgerFromRho returns a ρ-ledger with an explicit ρ total; the
// nominal ε is the (ε, delta)-DP translation of spending it all.
func NewZCDPLedgerFromRho(totalRho, delta float64) (*ZCDPLedger, error) {
	if err := CheckRho(totalRho); err != nil {
		return nil, err
	}
	if err := CheckDelta(delta); err != nil {
		return nil, err
	}
	return &ZCDPLedger{totalRho: totalRho, eps: ZCDPEpsilon(totalRho, delta), delta: delta}, nil
}

// rho prices a cost in ρ.
func (l *ZCDPLedger) rho(c Cost) (float64, error) {
	if c.Rho != 0 {
		if err := CheckRho(c.Rho); err != nil {
			return 0, err
		}
		return c.Rho, nil
	}
	if err := CheckEpsilon(c.Eps); err != nil {
		return 0, err
	}
	return PureToZCDP(c.Eps), nil
}

// Spend atomically charges one release in ρ.
func (l *ZCDPLedger) Spend(c Cost) error {
	rho, err := l.rho(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Tolerate float rounding at the boundary, as BasicLedger does.
	if l.spentRho+rho > l.totalRho*(1+1e-12) {
		return fmt.Errorf("%w: spent rho=%v + requested rho=%v > total rho=%v (zCDP, delta=%v)",
			ErrBudgetExhausted, l.spentRho, rho, l.totalRho, l.delta)
	}
	l.spentRho += rho
	return nil
}

// Remaining reports the unspent ρ (never negative).
func (l *ZCDPLedger) Remaining() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.totalRho - l.spentRho
	if r < 0 {
		return 0
	}
	return r
}

// Spent reports the cumulative ρ spend.
func (l *ZCDPLedger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spentRho
}

// Total reports the ρ ceiling.
func (l *ZCDPLedger) Total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalRho
}

// Unit reports zCDP ρ.
func (l *ZCDPLedger) Unit() Unit { return UnitRho }

// Reset refills the budget to Total.
func (l *ZCDPLedger) Reset() {
	l.mu.Lock()
	l.spentRho = 0
	l.mu.Unlock()
}

// Delta reports the approximation parameter the (ε, δ) view uses.
func (l *ZCDPLedger) Delta() float64 { return l.delta }

// NominalEps reports the ε target the total ρ was derived from: the
// (ε, δ)-DP guarantee that holds even when the ledger is fully spent.
func (l *ZCDPLedger) NominalEps() float64 { return l.eps }

// SpentEpsilon reports the (ε, δ)-DP translation of the spend so far
// (ZCDPEpsilon at the ledger's δ) — the number callers compare against the
// nominal ε.
func (l *ZCDPLedger) SpentEpsilon() float64 { return ZCDPEpsilon(l.Spent(), l.delta) }

// ---------- WindowedLedger: renewable budgets ----------

// WindowedLedger decorates any inner ledger with a fixed wall-clock refill
// window: at every window boundary the inner budget resets to full, making
// a long-lived tenant's budget a rate ("ε per hour") instead of a lifetime
// total. The privacy reading: each window is one accounted release period;
// the guarantee holds per window, and an adversary observing w windows
// faces at most w-fold composition of the window budget — the standard
// operating model for renewable DP budgets in production services.
//
// All access is serialized through the decorator's own mutex, so refills
// can never race a spend into overdraw.
type WindowedLedger struct {
	mu     sync.Mutex
	inner  Ledger
	window time.Duration
	now    func() time.Time
	next   time.Time // next refill boundary
}

// NewWindowedLedger wraps inner with a refill window.
func NewWindowedLedger(inner Ledger, window time.Duration) (*WindowedLedger, error) {
	if window <= 0 {
		return nil, fmt.Errorf("%w: got %v", ErrInvalidWindow, window)
	}
	l := &WindowedLedger{inner: inner, window: window, now: time.Now}
	l.next = l.now().Add(window)
	return l, nil
}

// SetNow injects a clock for tests. Call before the ledger is shared
// between goroutines; the next boundary is re-anchored to the new clock.
func (l *WindowedLedger) SetNow(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
	l.next = now().Add(l.window)
}

// roll refills the inner ledger when one or more window boundaries have
// passed. Callers hold l.mu.
func (l *WindowedLedger) roll() {
	now := l.now()
	if now.Before(l.next) {
		return
	}
	l.inner.Reset()
	// Advance to the first boundary strictly after now in O(1), keeping
	// boundaries phase-aligned to the creation instant.
	missed := now.Sub(l.next)/l.window + 1
	l.next = l.next.Add(missed * l.window)
}

// Spend refills if a boundary passed, then charges the inner ledger.
func (l *WindowedLedger) Spend(c Cost) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roll()
	return l.inner.Spend(c)
}

// Remaining reports the unspent budget in the current window.
func (l *WindowedLedger) Remaining() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roll()
	return l.inner.Remaining()
}

// Spent reports the spend within the current window.
func (l *WindowedLedger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roll()
	return l.inner.Spent()
}

// Total reports the per-window budget.
func (l *WindowedLedger) Total() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Total()
}

// Unit reports the inner ledger's unit.
func (l *WindowedLedger) Unit() Unit { return l.inner.Unit() }

// Reset refills immediately and restarts the window from now.
func (l *WindowedLedger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.Reset()
	l.next = l.now().Add(l.window)
}

// Inner returns the decorated ledger (for status reporting).
func (l *WindowedLedger) Inner() Ledger { return l.inner }
