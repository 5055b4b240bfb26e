package dp

import (
	"math"
	"testing"
)

// TestParallelCostIdentity: at bound <= 1 the grouped release costs
// exactly the per-group cost, whatever its representation.
func TestParallelCostIdentity(t *testing.T) {
	costs := []Cost{
		EpsCost(0.7),
		RhoCost(0.02),
	}
	for _, c := range costs {
		for _, b := range []int{0, 1} {
			got := ParallelCost(c, b)
			if got != c {
				t.Fatalf("ParallelCost(%v, %d) = %v, want identity", c, b, got)
			}
		}
	}
}

// TestParallelCostSequentialFallback: bound > 1 scales every
// representation by the bound, and zero fields stay zero (exactly one
// representation remains set).
func TestParallelCostSequentialFallback(t *testing.T) {
	if got := ParallelCost(EpsCost(0.25), 3); got.Eps != 0.75 || got.Rho != 0 {
		t.Fatalf("eps fallback: got %+v", got)
	}
	if got := ParallelCost(RhoCost(0.01), 4); got.Rho != 0.04 || got.Eps != 0 {
		t.Fatalf("rho fallback: got %+v", got)
	}
}

// TestParallelCostAllLedgers: the scaled cost stays representable in
// every backend that accepted the per-group cost — a pure-ε per-group
// cost lands on pure, zcdp, and rdp ledgers — and the spend equals the
// scaled amount.
func TestParallelCostAllLedgers(t *testing.T) {
	per := EpsCost(0.1)
	cost := ParallelCost(per, 2) // 0.2 eps total

	bl, err := NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Spend(cost); err != nil {
		t.Fatalf("pure ledger refused parallel cost: %v", err)
	}
	if got := bl.Spent(); math.Abs(got-0.2) > 1e-15 {
		t.Fatalf("pure spend = %v, want 0.2", got)
	}

	zl, err := NewZCDPLedger(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := zl.Spend(cost); err != nil {
		t.Fatalf("zcdp ledger refused parallel cost: %v", err)
	}
	if got, want := zl.Spent(), PureToZCDP(0.2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("zcdp spend = %v, want %v", got, want)
	}

	rl, err := NewRDPLedger(1, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Spend(cost); err != nil {
		t.Fatalf("rdp ledger refused parallel cost: %v", err)
	}
	orders := rl.Orders()
	for i, s := range rl.SpentByOrder() {
		if want := PureRDP(orders[i], 0.2); math.Abs(s-want) > 1e-12 {
			t.Fatalf("rdp spend at alpha=%v: %v, want %v", orders[i], s, want)
		}
	}

}
