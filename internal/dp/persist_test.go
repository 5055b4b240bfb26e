package dp

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// roundTrip serializes and rebuilds a ledger state the way the durable
// store does (through JSON).
func roundTrip(t *testing.T, l StatefulLedger) StatefulLedger {
	t.Helper()
	st, err := l.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back LedgerState
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored, err := RestoreLedger(back)
	if err != nil {
		t.Fatalf("RestoreLedger: %v", err)
	}
	return restored
}

func TestBasicLedgerSnapshotRestore(t *testing.T) {
	l, err := NewBasicLedger(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(EpsCost(0.75)); err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l)
	if r.Unit() != UnitEps || r.Total() != 2 || r.Spent() != 0.75 {
		t.Fatalf("restored unit=%v total=%v spent=%v", r.Unit(), r.Total(), r.Spent())
	}
	// The restored ledger keeps enforcing: 1.25 remains.
	if err := r.Spend(EpsCost(1.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overdraw after restore: %v", err)
	}
	if err := r.Spend(EpsCost(1.25)); err != nil {
		t.Fatalf("affordable spend after restore: %v", err)
	}
}

func TestZCDPLedgerSnapshotRestore(t *testing.T) {
	l, err := NewZCDPLedger(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(EpsCost(0.1)); err != nil { // 0.005 rho
		t.Fatal(err)
	}
	if err := l.Spend(RhoCost(0.001)); err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l).(*ZCDPLedger)
	if r.Unit() != UnitRho {
		t.Fatalf("unit = %v", r.Unit())
	}
	if got, want := r.Spent(), l.Spent(); got != want {
		t.Fatalf("spent rho = %v, want %v", got, want)
	}
	if r.Total() != l.Total() {
		t.Fatalf("total rho = %v, want %v", r.Total(), l.Total())
	}
	if r.Delta() != 1e-6 || r.NominalEps() != 1 {
		t.Fatalf("delta=%v nominal=%v", r.Delta(), r.NominalEps())
	}
	if r.SpentEpsilon() != l.SpentEpsilon() {
		t.Fatalf("spent epsilon view %v != %v", r.SpentEpsilon(), l.SpentEpsilon())
	}
}

func TestRDPLedgerSnapshotRestore(t *testing.T) {
	l, err := NewRDPLedger(1, 1e-6, []float64{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(EpsCost(0.05)); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(RhoCost(0.001)); err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l).(*RDPLedger)
	if r.Unit() != UnitRDP {
		t.Fatalf("unit = %v", r.Unit())
	}
	if r.Delta() != 1e-6 || r.NominalEps() != 1 || r.Total() != 1 {
		t.Fatalf("delta=%v nominal=%v total=%v", r.Delta(), r.NominalEps(), r.Total())
	}
	wantOrders, wantSpent := l.Orders(), l.SpentByOrder()
	gotOrders, gotSpent := r.Orders(), r.SpentByOrder()
	if len(gotOrders) != len(wantOrders) {
		t.Fatalf("restored %d orders, want %d", len(gotOrders), len(wantOrders))
	}
	for i := range wantOrders {
		if gotOrders[i] != wantOrders[i] || gotSpent[i] != wantSpent[i] {
			t.Fatalf("order %d: (%v, %v), want (%v, %v)",
				i, gotOrders[i], gotSpent[i], wantOrders[i], wantSpent[i])
		}
	}
	if r.Spent() != l.Spent() || r.BestOrder() != l.BestOrder() {
		t.Fatalf("converted view (%v @ %v) != original (%v @ %v)",
			r.Spent(), r.BestOrder(), l.Spent(), l.BestOrder())
	}
	// The restored ledger keeps enforcing at the per-order ceilings.
	if err := r.Spend(EpsCost(1000)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("huge spend after restore: %v", err)
	}
}

// Restore refuses a state whose grid is not normalized: sorting it here
// would silently re-pair spends with the wrong orders.
func TestRDPRestoreRefusesShuffledOrders(t *testing.T) {
	l, err := NewRDPLedger(20, 1e-6, []float64{2, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []LedgerState{
		{Kind: LedgerRDP, Eps: 20, Delta: 1e-6, Orders: []float64{64, 2}, SpentRDP: []float64{5, 1}},
		{Kind: LedgerRDP, Eps: 20, Delta: 1e-6, Orders: []float64{2, 2, 64}, SpentRDP: []float64{1, 1, 5}},
	} {
		if err := l.Restore(bad); !errors.Is(err, ErrBadLedgerState) {
			t.Errorf("Restore(orders=%v): want ErrBadLedgerState, got %v", bad.Orders, err)
		}
	}
}

func TestRDPForceSpendPricesLikeSpend(t *testing.T) {
	a, _ := NewRDPLedger(1, 1e-6, []float64{2, 16})
	b, _ := NewRDPLedger(1, 1e-6, []float64{2, 16})
	if err := a.Spend(EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	if err := b.ForceSpend(EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	as, bs := a.SpentByOrder(), b.SpentByOrder()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("order %d: ForceSpend priced %v, Spend priced %v", i, bs[i], as[i])
		}
	}
	// Replay may push every order past its ceiling; later Spends refuse.
	for i := 0; i < 1000; i++ {
		if err := b.ForceSpend(EpsCost(0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Spend(EpsCost(0.001)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend on overdrawn rdp ledger: %v", err)
	}
}

func TestWindowedOverRDPSnapshotRoundTrip(t *testing.T) {
	inner, err := NewRDPLedger(1, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewWindowedLedger(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Spend(EpsCost(0.02)); err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l).(*WindowedLedger)
	if r.window != time.Hour || r.Unit() != UnitRDP {
		t.Fatalf("window=%v unit=%v", r.window, r.Unit())
	}
	ri, ok := r.Inner().(*RDPLedger)
	if !ok {
		t.Fatalf("inner = %T", r.Inner())
	}
	if ri.Spent() != inner.Spent() {
		t.Fatalf("restored inner spent %v, want %v", ri.Spent(), inner.Spent())
	}
}

func TestForceSpendIgnoresCeiling(t *testing.T) {
	l, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	// Replay may push spend past the total — the conservative direction.
	if err := l.ForceSpend(EpsCost(0.9)); err != nil {
		t.Fatal(err)
	}
	if err := l.ForceSpend(EpsCost(0.9)); err != nil {
		t.Fatal(err)
	}
	if got := l.Spent(); got != 1.8 {
		t.Fatalf("spent = %v, want 1.8", got)
	}
	if got := l.Remaining(); got != 0 {
		t.Fatalf("remaining = %v, want 0 (clamped)", got)
	}
	// But ordinary Spend still refuses.
	if err := l.Spend(EpsCost(0.01)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spend on overdrawn ledger: %v", err)
	}
	// Unrepresentable costs are still refused even in replay.
	if err := l.ForceSpend(RhoCost(0.1)); !errors.Is(err, ErrUnsupportedCost) {
		t.Fatalf("rho replay on basic ledger: %v", err)
	}
}

func TestZCDPForceSpendPricesLikeSpend(t *testing.T) {
	l, err := NewZCDPLedger(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ForceSpend(EpsCost(0.2)); err != nil { // 0.02 rho
		t.Fatal(err)
	}
	if got, want := l.Spent(), PureToZCDP(0.2); got != want {
		t.Fatalf("replayed pure cost priced %v, want %v", got, want)
	}
}

func TestWindowedLedgerRestorePreservesBoundary(t *testing.T) {
	inner, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	now := base
	clock := func() time.Time { return now }
	l, err := NewWindowedLedger(inner, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	l.SetNow(clock) // boundary at base+60s
	now = base.Add(40 * time.Second)
	if err := l.Spend(EpsCost(0.8)); err != nil {
		t.Fatal(err)
	}
	st, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart" 10 seconds later, still inside the original window: the
	// restored ledger must NOT grant a fresh window.
	inner2, _ := NewBasicLedger(1)
	l2, err := NewWindowedLedger(inner2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	now = base.Add(50 * time.Second)
	l2.SetNow(clock)
	if err := l2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := l2.Spent(); got != 0.8 {
		t.Fatalf("restored spent = %v, want 0.8", got)
	}
	if err := l2.Spend(EpsCost(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("restart must not refill mid-window: %v", err)
	}
	// Cross the ORIGINAL boundary (base+60s): refill resumes on schedule.
	now = base.Add(61 * time.Second)
	if err := l2.Spend(EpsCost(0.5)); err != nil {
		t.Fatalf("refill at the original boundary: %v", err)
	}
	if got := l2.Spent(); got != 0.5 {
		t.Fatalf("post-refill spent = %v, want 0.5", got)
	}
}

func TestWindowedLedgerRestoreAfterDowntimeRefills(t *testing.T) {
	inner, _ := NewBasicLedger(1)
	base := time.Unix(2000, 0)
	now := base
	clock := func() time.Time { return now }
	l, _ := NewWindowedLedger(inner, time.Minute)
	l.SetNow(clock)
	if err := l.Spend(EpsCost(1)); err != nil {
		t.Fatal(err)
	}
	st, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Downtime crossed the boundary: the restored ledger refills on first
	// use, as it would have live.
	inner2, _ := NewBasicLedger(1)
	l2, _ := NewWindowedLedger(inner2, time.Minute)
	now = base.Add(2 * time.Minute)
	l2.SetNow(clock)
	if err := l2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if err := l2.Spend(EpsCost(0.3)); err != nil {
		t.Fatalf("spend after boundary-crossing downtime: %v", err)
	}
}

func TestWindowedReplayPinsIntoCurrentWindow(t *testing.T) {
	// Crash shape: snapshot at t=0 records boundary B; the boundary
	// passes live (refill), more releases spend the NEW window's budget
	// and land in the WAL; crash; restart after B. Replaying those
	// deductions must not be wiped by the first post-restart roll — that
	// would hand the current window double budget.
	base := time.Unix(3000, 0)
	now := base
	clock := func() time.Time { return now }

	inner, _ := NewBasicLedger(1)
	l, _ := NewWindowedLedger(inner, time.Minute)
	l.SetNow(clock) // boundary B = base+60s
	if err := l.Spend(EpsCost(0.4)); err != nil {
		t.Fatal(err)
	}
	st, err := l.Snapshot() // records next = B, spent 0.4
	if err != nil {
		t.Fatal(err)
	}

	// Restart at base+90s: B passed during the live post-snapshot period.
	inner2, _ := NewBasicLedger(1)
	l2, _ := NewWindowedLedger(inner2, time.Minute)
	now = base.Add(90 * time.Second)
	l2.SetNow(clock)
	if err := l2.Restore(st); err != nil {
		t.Fatal(err)
	}
	// WAL tail: deductions recorded after the pre-crash refill.
	if err := l2.ForceSpend(EpsCost(0.7)); err != nil {
		t.Fatal(err)
	}
	// The replayed spend survives the next live operation (no refill
	// until the NEXT boundary at base+120s).
	if got := l2.Spent(); got < 0.7 {
		t.Fatalf("replayed spend wiped by post-restart roll: %v", got)
	}
	if err := l2.Spend(EpsCost(0.5)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("current window handed out extra budget after replay: %v", err)
	}
	// The following boundary still refills on schedule.
	now = base.Add(121 * time.Second)
	if err := l2.Spend(EpsCost(0.5)); err != nil {
		t.Fatalf("refill at the next boundary: %v", err)
	}
}

func TestWindowedSnapshotRoundTripJSON(t *testing.T) {
	inner, _ := NewZCDPLedger(1, 1e-6)
	l, _ := NewWindowedLedger(inner, time.Hour)
	if err := l.Spend(EpsCost(0.1)); err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l).(*WindowedLedger)
	if r.window != time.Hour {
		t.Fatalf("window = %v", r.window)
	}
	if r.Unit() != UnitRho {
		t.Fatalf("unit = %v", r.Unit())
	}
	if r.Spent() != l.Spent() {
		t.Fatalf("spent = %v, want %v", r.Spent(), l.Spent())
	}
	if _, ok := r.Inner().(*ZCDPLedger); !ok {
		t.Fatalf("inner = %T", r.Inner())
	}
}

func TestRestoreLedgerRejectsBadState(t *testing.T) {
	cases := []LedgerState{
		{Kind: "martian", Total: 1},
		{Kind: LedgerBasic, Total: -1},
		{Kind: LedgerBasic, Total: 1, Spent: -0.5},
		{Kind: LedgerZCDP, Total: 0.1, Delta: 0},                // missing delta
		{Kind: LedgerWindowed, WindowNanos: int64(time.Minute)}, // no inner
	}
	for _, st := range cases {
		if _, err := RestoreLedger(st); err == nil {
			t.Errorf("RestoreLedger(%+v) accepted invalid state", st)
		}
	}
}
