package dp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// This file is the persistence face of the composition backends: every
// ledger can serialize its state (Snapshot), be rebuilt from one
// (RestoreLedger / Restore), and absorb a replayed deduction without the
// overdraw check (ForceSpend). The durable store (internal/store) records
// ledger deductions in a write-ahead log before a mechanism's answer is
// returned and compacts full ledger state into snapshots; on boot it
// restores the snapshot and force-replays the WAL tail, so post-restart
// spend is always >= the spend of every answered release. ForceSpend
// deliberately admits spend beyond Total — after a crash the conservative
// direction is to over-count, never to refill.

// Ledger kinds a LedgerState can name.
const (
	// LedgerBasic is BasicLedger (pure-ε basic composition).
	LedgerBasic = "basic"
	// LedgerZCDP is ZCDPLedger (zCDP ρ-accounting).
	LedgerZCDP = "zcdp"
	// LedgerRDP is RDPLedger (Rényi accounting over an order grid).
	LedgerRDP = "rdp"
	// LedgerWindowed is WindowedLedger (renewable window over an inner backend).
	LedgerWindowed = "windowed"
)

// ErrBadLedgerState reports a LedgerState that no ledger can be rebuilt
// from (unknown kind, invalid totals, missing inner state).
var ErrBadLedgerState = errors.New("dp: invalid ledger state")

// LedgerState is the serializable state of a composition backend — what a
// snapshot stores and a restart rebuilds. Total and Spent are in the
// ledger's native unit; Spent may exceed Total (a crash-replayed ledger
// over-counts rather than refills). Windowed states carry the refill
// geometry — window length and the absolute next boundary — so a restart
// preserves the wall-clock phase instead of granting a fresh window.
type LedgerState struct {
	Kind  string  `json:"kind"`
	Unit  Unit    `json:"unit"`
	Total float64 `json:"total"`
	Spent float64 `json:"spent"`

	// zCDP / RDP: the nominal (ε, δ) target. For zCDP the ρ total was
	// derived from it; for RDP it IS the total (Total mirrors Eps).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`

	// RDP: the order grid and the per-order spend vector (parallel to
	// Orders) — the native state; Spent mirrors the (ε, δ) conversion for
	// human inspection of snapshot files only.
	Orders   []float64 `json:"orders,omitempty"`
	SpentRDP []float64 `json:"spent_rdp,omitempty"`

	// Windowed: refill period and the absolute next boundary.
	WindowNanos    int64        `json:"window_nanos,omitempty"`
	NextRefillUnix int64        `json:"next_refill_unix_nano,omitempty"`
	Inner          *LedgerState `json:"inner,omitempty"`
}

// StatefulLedger is a Ledger whose state survives restarts: it can be
// snapshotted, restored, and force-replayed. Every ledger in this package
// implements it.
type StatefulLedger interface {
	Ledger
	// Snapshot captures the full serializable state.
	Snapshot() (LedgerState, error)
	// Restore overwrites the ledger's state from a snapshot.
	Restore(LedgerState) error
	// ForceSpend charges a replayed deduction without the overdraw check:
	// WAL replay must never refuse a deduction that was already answered,
	// even if it pushes Spent past Total (later Spend calls will refuse).
	// It still fails on costs the backend cannot represent.
	ForceSpend(c Cost) error
}

// checkSpent validates a restored cumulative spend (>= 0, finite; it MAY
// exceed the total).
func checkSpent(spent float64) error {
	if spent < 0 || math.IsNaN(spent) || math.IsInf(spent, 0) {
		return fmt.Errorf("%w: spent %v", ErrBadLedgerState, spent)
	}
	return nil
}

// RestoreLedger rebuilds a concrete ledger from a snapshot state — the
// boot path of the durable store.
func RestoreLedger(st LedgerState) (StatefulLedger, error) {
	switch st.Kind {
	case LedgerBasic:
		l, err := NewBasicLedger(st.Total)
		if err != nil {
			return nil, err
		}
		if err := l.Restore(st); err != nil {
			return nil, err
		}
		return l, nil
	case LedgerZCDP:
		l, err := NewZCDPLedgerFromRho(st.Total, st.Delta)
		if err != nil {
			return nil, err
		}
		if err := l.Restore(st); err != nil {
			return nil, err
		}
		return l, nil
	case LedgerRDP:
		eps := st.Eps
		if eps == 0 {
			eps = st.Total
		}
		l, err := NewRDPLedger(eps, st.Delta, st.Orders)
		if err != nil {
			return nil, err
		}
		if err := l.Restore(st); err != nil {
			return nil, err
		}
		return l, nil
	case LedgerWindowed:
		if st.Inner == nil {
			return nil, fmt.Errorf("%w: windowed state without inner", ErrBadLedgerState)
		}
		// The inner ledger is fully restored here, so only the window
		// geometry remains for the decorator — restoring the inner a
		// second time through l.Restore would silently depend on every
		// inner Restore being idempotent.
		inner, err := RestoreLedger(*st.Inner)
		if err != nil {
			return nil, err
		}
		l, err := NewWindowedLedger(inner, time.Duration(st.WindowNanos))
		if err != nil {
			return nil, err
		}
		if err := l.restoreWindow(st); err != nil {
			return nil, err
		}
		return l, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadLedgerState, st.Kind)
	}
}

// ---------- BasicLedger ----------

// Snapshot captures the pure-ε state.
func (l *BasicLedger) Snapshot() (LedgerState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerState{
		Kind:  LedgerBasic,
		Unit:  UnitEps,
		Total: l.total,
		Spent: l.spent,
	}, nil
}

// Restore overwrites the budget from a snapshot.
func (l *BasicLedger) Restore(st LedgerState) error {
	if st.Kind != LedgerBasic {
		return fmt.Errorf("%w: kind %q into a basic ledger", ErrBadLedgerState, st.Kind)
	}
	if err := CheckEpsilon(st.Total); err != nil {
		return err
	}
	if err := checkSpent(st.Spent); err != nil {
		return err
	}
	l.mu.Lock()
	l.total, l.spent = st.Total, st.Spent
	l.mu.Unlock()
	return nil
}

// ForceSpend charges a replayed pure-ε deduction without the overdraw
// check. Native-ρ costs remain unrepresentable.
func (l *BasicLedger) ForceSpend(c Cost) error {
	eps, err := pureEps(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.spent += eps
	l.mu.Unlock()
	return nil
}

// ---------- ZCDPLedger ----------

// Snapshot captures the ρ state plus the nominal (ε, δ) target.
func (l *ZCDPLedger) Snapshot() (LedgerState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerState{
		Kind:  LedgerZCDP,
		Unit:  UnitRho,
		Total: l.totalRho,
		Spent: l.spentRho,
		Eps:   l.eps,
		Delta: l.delta,
	}, nil
}

// Restore overwrites the budget from a snapshot.
func (l *ZCDPLedger) Restore(st LedgerState) error {
	if st.Kind != LedgerZCDP {
		return fmt.Errorf("%w: kind %q into a zcdp ledger", ErrBadLedgerState, st.Kind)
	}
	if err := CheckRho(st.Total); err != nil {
		return err
	}
	if err := CheckDelta(st.Delta); err != nil {
		return err
	}
	if err := checkSpent(st.Spent); err != nil {
		return err
	}
	eps := st.Eps
	if eps == 0 {
		eps = ZCDPEpsilon(st.Total, st.Delta)
	}
	l.mu.Lock()
	l.totalRho, l.spentRho, l.eps, l.delta = st.Total, st.Spent, eps, st.Delta
	l.mu.Unlock()
	return nil
}

// ForceSpend charges a replayed deduction — priced exactly as Spend would
// (ε²/2 for pure costs, ρ directly) — without the overdraw check.
func (l *ZCDPLedger) ForceSpend(c Cost) error {
	rho, err := l.rho(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.spentRho += rho
	l.mu.Unlock()
	return nil
}

// ---------- RDPLedger ----------

// Snapshot captures the per-order spend vector plus the (ε, δ) target
// and the order grid. Total and Spent carry the converted (ε, δ) view
// for human inspection; the vector is what a restart rebuilds from.
func (l *RDPLedger) Snapshot() (LedgerState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	spentEps, _ := RDPEpsilon(l.orders, l.spent, l.delta)
	return LedgerState{
		Kind:     LedgerRDP,
		Unit:     UnitRDP,
		Total:    l.eps,
		Spent:    spentEps,
		Eps:      l.eps,
		Delta:    l.delta,
		Orders:   append([]float64(nil), l.orders...),
		SpentRDP: append([]float64(nil), l.spent...),
	}, nil
}

// Restore overwrites the per-order state from a snapshot. The snapshot's
// grid replaces the ledger's own (the vector is meaningless on any other
// grid) and must already be normalized — strictly ascending, each order
// > 1 — exactly as Snapshot writes it: sorting here would silently
// re-pair spends with the wrong orders, so a shuffled grid is refused as
// corrupt instead. An absent SpentRDP restores as zero spend. Per-order
// spends may exceed their ceilings — a crash-replayed ledger
// over-counts, never refills.
func (l *RDPLedger) Restore(st LedgerState) error {
	if st.Kind != LedgerRDP {
		return fmt.Errorf("%w: kind %q into an rdp ledger", ErrBadLedgerState, st.Kind)
	}
	eps := st.Eps
	if eps == 0 {
		eps = st.Total
	}
	if err := CheckEpsilon(eps); err != nil {
		return err
	}
	if err := CheckDelta(st.Delta); err != nil {
		return err
	}
	grid, err := checkOrders(st.Orders)
	if err != nil {
		return err
	}
	if len(st.Orders) > 0 && len(grid) != len(st.Orders) {
		return fmt.Errorf("%w: rdp orders not normalized (duplicates)", ErrBadLedgerState)
	}
	for i := range grid {
		if len(st.Orders) > 0 && grid[i] != st.Orders[i] {
			return fmt.Errorf("%w: rdp orders not sorted ascending", ErrBadLedgerState)
		}
	}
	spent := append([]float64(nil), st.SpentRDP...)
	if len(spent) == 0 {
		spent = make([]float64, len(grid))
	}
	if len(spent) != len(grid) {
		return fmt.Errorf("%w: %d spends for %d orders", ErrBadLedgerState, len(spent), len(grid))
	}
	for _, s := range spent {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 1) {
			return fmt.Errorf("%w: rdp spend %v", ErrBadLedgerState, s)
		}
	}
	budget := make([]float64, len(grid))
	for i, a := range grid {
		budget[i] = eps - math.Log(1/st.Delta)/(a-1)
	}
	l.mu.Lock()
	l.orders = grid
	l.spent = spent
	l.budget = budget
	l.eps, l.delta = eps, st.Delta
	l.mu.Unlock()
	return nil
}

// ForceSpend charges a replayed deduction — priced exactly as Spend
// would, the full per-order curve — without the affordability check.
func (l *RDPLedger) ForceSpend(c Cost) error {
	v, err := l.curve(c)
	if err != nil {
		return err
	}
	l.mu.Lock()
	for i := range l.spent {
		l.spent[i] += v[i]
	}
	l.mu.Unlock()
	return nil
}

// ---------- WindowedLedger ----------

// Snapshot captures the inner state plus the refill geometry: the window
// length and the absolute next boundary, so a restart resumes the same
// wall-clock phase (downtime that crossed a boundary still refills, and
// downtime that did not grants nothing). The inner ledger must itself be
// stateful. The outer Total/Spent mirror the inner's at capture time for
// human inspection of snapshot files only — every restore path reads
// Inner, never them.
func (l *WindowedLedger) Snapshot() (LedgerState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roll()
	sl, ok := l.inner.(StatefulLedger)
	if !ok {
		return LedgerState{}, fmt.Errorf("%w: windowed inner ledger %T is not snapshottable", ErrBadLedgerState, l.inner)
	}
	inner, err := sl.Snapshot()
	if err != nil {
		return LedgerState{}, err
	}
	return LedgerState{
		Kind:           LedgerWindowed,
		Unit:           l.inner.Unit(),
		Total:          l.inner.Total(),
		Spent:          l.inner.Spent(),
		WindowNanos:    int64(l.window),
		NextRefillUnix: l.next.UnixNano(),
		Inner:          &inner,
	}, nil
}

// Restore overwrites the inner state and re-anchors the next refill
// boundary at the snapshot's absolute instant (not "now + window"): a
// restart must not grant a fresh window. A restored boundary already in
// the past refills on the next operation, exactly as a passed boundary
// would have live.
func (l *WindowedLedger) Restore(st LedgerState) error {
	if st.Inner == nil {
		return fmt.Errorf("%w: windowed state without inner", ErrBadLedgerState)
	}
	sl, ok := l.inner.(StatefulLedger)
	if !ok {
		return fmt.Errorf("%w: windowed inner ledger %T is not restorable", ErrBadLedgerState, l.inner)
	}
	if err := l.restoreWindow(st); err != nil {
		return err
	}
	return sl.Restore(*st.Inner)
}

// restoreWindow applies only the decorator's own state — window length
// and absolute next boundary — leaving the inner ledger untouched (the
// RestoreLedger path has already restored it).
func (l *WindowedLedger) restoreWindow(st LedgerState) error {
	if st.Kind != LedgerWindowed {
		return fmt.Errorf("%w: kind %q into a windowed ledger", ErrBadLedgerState, st.Kind)
	}
	if st.WindowNanos <= 0 {
		return fmt.Errorf("%w: got %v", ErrInvalidWindow, time.Duration(st.WindowNanos))
	}
	l.mu.Lock()
	l.window = time.Duration(st.WindowNanos)
	l.next = time.Unix(0, st.NextRefillUnix)
	l.mu.Unlock()
	return nil
}

// ForceSpend charges the inner ledger without refilling, and pins the
// replayed deduction into the CURRENT window by advancing a stale
// boundary (phase-aligned) without the reset a live roll would do. The
// stale-boundary case is exactly the crash shape where refilling would
// be wrong: the snapshot's boundary predates WAL-tail deductions that
// may belong to a window refilled after the snapshot, and wiping them on
// the first post-restart roll would hand that window double budget. The
// cost of pinning is over-counting — a replayed deduction from a window
// completed before the crash is attributed to the current one — which is
// the conservative direction (spend is never under-counted).
func (l *WindowedLedger) ForceSpend(c Cost) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sl, ok := l.inner.(StatefulLedger)
	if !ok {
		return fmt.Errorf("%w: windowed inner ledger %T cannot replay", ErrBadLedgerState, l.inner)
	}
	if now := l.now(); !now.Before(l.next) {
		missed := now.Sub(l.next)/l.window + 1
		l.next = l.next.Add(missed * l.window)
	}
	return sl.ForceSpend(c)
}
